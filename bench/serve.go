package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"llama4d/internal/model"
	"llama4d/internal/serve"
	"llama4d/internal/tensor"
)

// serveSpec is one serving workload: a model, a request stream and the
// scheduler limits. The loop is closed and tick-driven: a request arrives at
// a scheduler tick, not at a wall-clock time, so a slower engine sees the
// same schedule and latencies count engine time only.
type serveSpec struct {
	model model.Config
	// load is the traffic shape: how many requests, how long their prompts
	// and generations, at which ticks they arrive. Its Seed is part of the
	// shape and fixed here; the run's seed fills in the prompts' tokens (and
	// the weights), so every seed serves the same schedule.
	load     serve.Workload
	opts     serve.Options
	maxBatch int
	// ttft selects the median time to first token as a load's latency;
	// otherwise it is the median gap between a sequence's consecutive tokens.
	ttft bool
	// preempts says the page budget is sized to force preemptions: a load
	// without one is a failure.
	preempts bool
}

// warmupRequests is the size of the untimed warm-up load.
const warmupRequests = 4

func (sp serveSpec) open(seed int64, _ bool) (session, error) {
	rng := rand.New(rand.NewSource(seed))
	m := model.New(sp.model, rng)
	load := sp.load
	load.Vocab = sp.model.Vocab
	s := &serveSession{spec: sp, eng: serve.NewEngine(m, sp.opts), reqs: load.Generate()}
	for _, r := range s.reqs {
		for j := range r.Prompt {
			r.Prompt[j] = rng.Intn(sp.model.Vocab)
		}
	}
	// Warm-up: the first few requests, all arriving at once, fill the
	// arena's buffer classes and the KV page frames.
	var warm []*serve.Request
	for _, r := range s.reqs[:min(warmupRequests, len(s.reqs))] {
		c := *r
		c.Arrival = 0
		warm = append(warm, &c)
	}
	var m0 samples
	out, _ := s.runLoad(&m0, warm, nil, nil, -1)
	if m0.failed > 0 {
		return nil, fmt.Errorf("warm-up load: %s", m0.errs[0])
	}
	h := fnv.New64a()
	for _, r := range warm {
		fmt.Fprint(h, out[r.ID])
	}
	s.warm = h.Sum64()
	return s, nil
}

type serveSession struct {
	spec serveSpec
	eng  *serve.Engine
	reqs []*serve.Request // the request stream every load serves
	out  map[int][]int    // tokens the first load generated, by request
	warm uint64

	preemptions int        // of the last load
	first, all  serveTrace // the first traced load; all traced loads
}

// serveTrace is what traced loads count at the engine boundary.
type serveTrace struct {
	loads                         int
	tickSec, prefillSec, decSec   float64
	ticks, decodeSteps, decodeRow int
	prefillTokens, reprefill      int
	ttftTicks                     []float64
	occupancy                     float64 // summed leased/budget, one sample per tick
	peakPages, preemptions        int
	leaked                        int
}

// tracedRunner wraps the engine behind the scheduler's Runner interface and
// records a span and counts around each call.
type tracedRunner struct {
	inner serve.Runner
	log   *spanLog
	tick  int // the enclosing tick's span
	sched *serve.Scheduler
	tr    *serveTrace
}

func (t *tracedRunner) Prefill(seqs []*serve.SeqState) {
	for _, seq := range seqs {
		n := len(seq.Req.Prompt) + len(seq.Output)
		t.tr.prefillTokens += n
		if seq.Preemptions > 0 {
			t.tr.reprefill += n // work a preemption threw away
		} else {
			t.tr.ttftTicks = append(t.tr.ttftTicks, float64(t.sched.Clock()-seq.Req.Arrival))
		}
	}
	id := t.log.begin("prefill", t.tick)
	t.inner.Prefill(seqs)
	t.tr.prefillSec += t.log.end(id)
}

func (t *tracedRunner) DecodeStep(seqs []*serve.SeqState) {
	t.tr.decodeSteps++
	t.tr.decodeRow += len(seqs)
	id := t.log.begin("decode", t.tick)
	t.inner.DecodeStep(seqs)
	t.tr.decSec += t.log.end(id)
}

func (s *serveSession) digest() uint64 { return s.warm }

func (s *serveSession) note() string {
	var prompt, gen int
	for _, r := range s.reqs {
		prompt += len(r.Prompt)
		gen += r.MaxNew
	}
	return fmt.Sprintf("every load: %d requests, %d prompt and %d generated tokens, %d preemptions",
		len(s.reqs), prompt, gen, s.preemptions)
}

func (s *serveSession) op(m *samples, traced bool, log *spanLog, parent int) {
	var tr *serveTrace
	if traced {
		tr = &serveTrace{}
	}
	out, ok := s.runLoad(m, s.reqs, tr, log, parent)
	if !ok {
		return
	}
	if traced {
		if s.all.loads == 0 {
			s.first = *tr
		}
		s.all.add(tr)
	}
	if s.out == nil {
		s.out = out
		return
	}
	// Greedy decoding on the same requests: every load must generate the
	// same tokens, traced or not.
	for _, r := range s.reqs {
		if !slices.Equal(out[r.ID], s.out[r.ID]) {
			m.fail("request %d: tokens %v differ from the first load's %v", r.ID, out[r.ID], s.out[r.ID])
		}
	}
}

func (t *serveTrace) add(o *serveTrace) {
	t.loads += o.loads
	t.tickSec += o.tickSec
	t.prefillSec += o.prefillSec
	t.decSec += o.decSec
	t.leaked += o.leaked
}

// runLoad submits reqs to a fresh scheduler over the session's engine and
// drives it tick by tick until all complete. Every request is one attempted
// operation. It returns the generated tokens by request id, and whether the
// load ran to its end.
func (s *serveSession) runLoad(m *samples, reqs []*serve.Request, tr *serveTrace, log *spanLog, parent int) (map[int][]int, bool) {
	var runner serve.Runner = s.eng
	var wrap *tracedRunner
	if tr != nil {
		wrap = &tracedRunner{inner: s.eng, log: log, tr: tr}
		runner = wrap
	}
	sched := serve.NewScheduler(s.eng.KV, runner, s.spec.maxBatch)
	if wrap != nil {
		wrap.sched = sched
	}
	m.attempted += len(reqs)
	bound := 16
	for _, r := range reqs {
		bound += r.MaxNew + r.Arrival + len(r.Prompt)
	}

	id := log.begin("load", parent)
	t0 := time.Now()
	if err := sched.Submit(reqs...); err != nil {
		m.fail("submit: %v", err)
		log.end(id)
		return nil, false
	}
	for more := true; more; {
		if sched.Steps > 16*bound {
			m.fail("scheduler made no progress after %d ticks", sched.Steps)
			log.end(id)
			return nil, false
		}
		tick := log.begin("tick", id)
		if wrap != nil {
			wrap.tick = tick
		}
		more = sched.Step()
		d := log.end(tick)
		if tr != nil {
			tr.tickSec += d
			leased := s.eng.KV.Alloc.Leased()
			tr.occupancy += float64(leased) / float64(s.eng.KV.Alloc.Budget())
			tr.peakPages = max(tr.peakPages, leased)
		}
	}
	wall := time.Since(t0)
	log.end(id)

	out := make(map[int][]int, len(reqs))
	var tokens int
	var lat []float64
	for _, seq := range sched.Completed() {
		out[seq.Req.ID] = seq.Output
		tokens += len(seq.Req.Prompt) + len(seq.Output)
		if s.spec.ttft {
			lat = append(lat, seq.FirstToken.Sub(seq.Submitted).Seconds()*1e3)
		} else {
			for i := 1; i < len(seq.TokenTimes); i++ {
				lat = append(lat, seq.TokenTimes[i].Sub(seq.TokenTimes[i-1]).Seconds()*1e3)
			}
		}
	}
	for _, r := range reqs {
		if got := len(out[r.ID]); got != r.MaxNew {
			m.fail("request %d: %d tokens generated, want %d", r.ID, got, r.MaxNew)
		}
	}
	leaked := s.eng.KV.Alloc.Leased()
	if leaked != 0 {
		m.fail("%d KV pages still leased after the load drained", leaked)
	}
	m.ops = append(m.ops, opSample{wallMS: wall.Seconds() * 1e3, latMS: median(lat), work: float64(tokens)})
	s.preemptions = sched.Preemptions
	if tr != nil {
		tr.loads++
		tr.ticks += sched.Steps
		tr.preemptions += sched.Preemptions
		tr.leaked += leaked
	}
	return out, true
}

func (s *serveSession) layers(out map[string]float64) {
	if s.all.loads == 0 {
		return
	}
	// Time shares pool every traced load. prefill + decode + self = tick
	// time exactly: self is the tick span minus its two children.
	tr := s.all
	out["serve.prefill_share"] = ratio(tr.prefillSec, tr.tickSec)
	out["serve.decode_share"] = ratio(tr.decSec, tr.tickSec)
	out["serve.sched_self_share"] = ratio(tr.tickSec-tr.prefillSec-tr.decSec, tr.tickSec)
	out["serve.kv_leaked_pages"] = float64(tr.leaked)
	// Counts come from the first traced load: every load serves the same
	// schedule, so they are the same whatever number of loads fits the run.
	tr = s.first
	out["serve.decode_batch_mean"] = ratio(float64(tr.decodeRow), float64(tr.decodeSteps))
	out["serve.ticks"] = float64(tr.ticks)
	out["serve.decode_steps"] = float64(tr.decodeSteps)
	out["serve.prefill_tokens"] = float64(tr.prefillTokens)
	out["serve.reprefill_token_share"] = ratio(float64(tr.reprefill), float64(tr.prefillTokens))
	out["serve.ttft_ticks_p50"] = median(tr.ttftTicks)
	out["serve.kv_occupancy_share"] = ratio(tr.occupancy, float64(tr.ticks))
	out["serve.kv_peak_pages"] = float64(tr.peakPages)
	out["serve.preemptions"] = float64(tr.preemptions)
	h := fnv.New32a()
	for _, r := range s.reqs {
		fmt.Fprint(h, s.out[r.ID])
	}
	out["serve.output_hash"] = float64(h.Sum32())
}

// oracleSamples is how many requests verify replays through the dense
// full-forward oracle.
const oracleSamples = 4

func (s *serveSession) verify(m *samples) {
	if s.out == nil {
		return
	}
	if s.spec.preempts {
		m.attempted++
		if s.preemptions == 0 {
			m.fail("no preemption: the page budget no longer caps the load")
		}
	}
	for i := 0; i < oracleSamples; i++ {
		req := s.reqs[i*(len(s.reqs)-1)/(oracleSamples-1)]
		m.attempted++
		tokens := append([]int(nil), req.Prompt...)
		for j, got := range s.out[req.ID] {
			lg := s.eng.FullForwardLogits(tokens)
			want := argmax(lg.Row(lg.Rows() - 1))
			tensor.Put(lg)
			if got != want {
				m.fail("request %d token %d: engine %d != greedy oracle %d", req.ID, j, got, want)
				break
			}
			tokens = append(tokens, got)
		}
	}
}

// argmax returns the greedy token of a logits row, lowest index on ties —
// the engine's own sampling rule.
func argmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
