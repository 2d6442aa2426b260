package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"llama4d/internal/tensor"
)

// Workload describes a synthetic multi-user request stream: Requests
// arrivals spread over ArrivalSpan scheduler ticks, prompts and generation
// budgets drawn uniformly from the given ranges. Everything is drawn from
// the seeded rng, so a workload is reproducible across runs and identical
// on every TP rank.
type Workload struct {
	Requests             int
	PromptMin, PromptMax int
	MaxNewMin, MaxNewMax int
	ArrivalSpan          int
	Vocab                int
	Seed                 int64
}

// Generate materialises the request stream.
func (w Workload) Generate() []*Request {
	rng := rand.New(rand.NewSource(w.Seed))
	span := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	reqs := make([]*Request, w.Requests)
	for i := range reqs {
		prompt := make([]int, span(w.PromptMin, w.PromptMax))
		for j := range prompt {
			prompt[j] = rng.Intn(w.Vocab)
		}
		arrival := 0
		if w.ArrivalSpan > 0 {
			arrival = rng.Intn(w.ArrivalSpan)
		}
		reqs[i] = &Request{ID: i, Prompt: prompt, MaxNew: span(w.MaxNewMin, w.MaxNewMax), Arrival: arrival}
	}
	return reqs
}

// RequestStats is one completed request's latency profile.
type RequestStats struct {
	ID          int     `json:"id"`
	PromptLen   int     `json:"prompt_len"`
	Generated   int     `json:"generated"`
	Preemptions int     `json:"preemptions"`
	TTFTSeconds float64 `json:"ttft_seconds"`
	ITLp50      float64 `json:"itl_p50_seconds"`
	ITLp99      float64 `json:"itl_p99_seconds"`
}

// Report is the load generator's run summary: aggregate throughput, the
// latency distributions, scheduler counters, and the KV-tagged arena
// traffic (whose Gets−Puts is the page-leak count at drain) — the
// metrics.Registry-style measured record of a serving run.
type Report struct {
	Requests       int     `json:"requests"`
	Steps          int     `json:"steps"`
	TotalTokens    int     `json:"total_tokens"`
	WallSeconds    float64 `json:"wall_seconds"`
	TokensPerSec   float64 `json:"tokens_per_sec"`
	TTFTp50        float64 `json:"ttft_p50_seconds"`
	TTFTp99        float64 `json:"ttft_p99_seconds"`
	ITLp50         float64 `json:"itl_p50_seconds"`
	ITLp99         float64 `json:"itl_p99_seconds"`
	PeakConcurrent int     `json:"peak_concurrent"`
	Preemptions    int     `json:"preemptions"`

	// KVPool is the run's KV-tagged arena traffic delta; LeakedPages is
	// Gets−Puts, which must be zero once every sequence has drained.
	KVPool      tensor.PoolStats `json:"kv_pool"`
	LeakedPages int64            `json:"leaked_pages"`

	PerRequest []RequestStats `json:"per_request"`
}

// quantile returns the q-quantile (0..1) of sorted xs (nearest-rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

// itls returns a sequence's inter-token latency samples in seconds.
func itls(ts []time.Time) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, ts[i].Sub(ts[i-1]).Seconds())
	}
	return out
}

// RunLoad submits the requests and drives the scheduler to completion,
// measuring throughput and latency into a Report; a livelocked scheduler's
// *LivelockError is returned. The KV pool accounting is the tagged-stats
// delta across the run.
func RunLoad(s *Scheduler, reqs []*Request) (*Report, error) {
	kv0 := tensor.DefaultPoolTagStats()[KVPoolTag]
	start := time.Now()
	if err := s.Submit(reqs...); err != nil {
		return nil, err
	}
	if err := s.RunToCompletion(); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	kv1 := tensor.DefaultPoolTagStats()[KVPoolTag]

	rep := &Report{
		Requests:       len(reqs),
		Steps:          s.Steps,
		WallSeconds:    wall,
		PeakConcurrent: s.PeakConcurrent,
		Preemptions:    s.Preemptions,
		KVPool: tensor.PoolStats{
			Gets: kv1.Gets - kv0.Gets, Hits: kv1.Hits - kv0.Hits,
			Puts: kv1.Puts - kv0.Puts, Rejects: kv1.Rejects - kv0.Rejects,
		},
	}
	rep.LeakedPages = rep.KVPool.Gets - rep.KVPool.Puts

	var ttfts, allITL []float64
	for _, seq := range s.Completed() {
		rep.TotalTokens += len(seq.Output)
		ttft := seq.FirstToken.Sub(seq.Submitted).Seconds()
		ttfts = append(ttfts, ttft)
		seqITL := itls(seq.TokenTimes)
		allITL = append(allITL, seqITL...)
		sorted := append([]float64(nil), seqITL...)
		sort.Float64s(sorted)
		rep.PerRequest = append(rep.PerRequest, RequestStats{
			ID:          seq.Req.ID,
			PromptLen:   len(seq.Req.Prompt),
			Generated:   len(seq.Output),
			Preemptions: seq.Preemptions,
			TTFTSeconds: ttft,
			ITLp50:      quantile(sorted, 0.50),
			ITLp99:      quantile(sorted, 0.99),
		})
	}
	sort.Slice(rep.PerRequest, func(i, j int) bool { return rep.PerRequest[i].ID < rep.PerRequest[j].ID })
	sort.Float64s(ttfts)
	sort.Float64s(allITL)
	rep.TTFTp50 = quantile(ttfts, 0.50)
	rep.TTFTp99 = quantile(ttfts, 0.99)
	rep.ITLp50 = quantile(allITL, 0.50)
	rep.ITLp99 = quantile(allITL, 0.99)
	if wall > 0 {
		rep.TokensPerSec = float64(rep.TotalTokens) / wall
	}
	return rep, nil
}

// Table renders the report as a fixed-width summary plus one row per
// request, in the style of metrics.StepReport.Table.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: %d requests, %d tokens in %.3fs (%.1f tok/s), %d engine steps\n",
		r.Requests, r.TotalTokens, r.WallSeconds, r.TokensPerSec, r.Steps)
	fmt.Fprintf(&b, "ttft p50 %.2fms p99 %.2fms, itl p50 %.2fms p99 %.2fms, peak concurrent %d, preemptions %d\n",
		1e3*r.TTFTp50, 1e3*r.TTFTp99, 1e3*r.ITLp50, 1e3*r.ITLp99, r.PeakConcurrent, r.Preemptions)
	fmt.Fprintf(&b, "kv pool: gets=%d hits=%d puts=%d rejects=%d leaked=%d\n",
		r.KVPool.Gets, r.KVPool.Hits, r.KVPool.Puts, r.KVPool.Rejects, r.LeakedPages)
	fmt.Fprintf(&b, "%4s %8s %8s %8s %10s %10s %10s\n",
		"req", "prompt", "tokens", "preempt", "ttft ms", "itl p50", "itl p99")
	for _, q := range r.PerRequest {
		fmt.Fprintf(&b, "%4d %8d %8d %8d %10.2f %10.3f %10.3f\n",
			q.ID, q.PromptLen, q.Generated, q.Preemptions,
			1e3*q.TTFTSeconds, 1e3*q.ITLp50, 1e3*q.ITLp99)
	}
	return b.String()
}
