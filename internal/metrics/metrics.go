// Package metrics is the measured half of the repo's measured-vs-modeled
// loop: a per-rank, per-step registry threaded through the functional stack.
// It hooks the communication substrate (comm.Meter and comm.Recorder), the
// pipeline executor (pp.Observer), the kernel dispatch layer's FLOP counter
// (tensor.FLOPCount), and the tensor arena (tensor.PoolStats), and folds
// per-rank compute/comm/wait wall time in from the trace events it collects.
// The cross-validation harness (internal/metrics/xval) asserts these
// measurements against the analytic predictions of internal/sim — turning
// "measured matches modeled" into a tested invariant.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/pp"
	"llama4d/internal/tensor"
	"llama4d/internal/trace"
)

// OpVolume is the measured traffic of one (group, op) pair on one rank.
type OpVolume struct {
	Bytes int64 `json:"bytes"`
	Msgs  int64 `json:"msgs"`
}

// RankReport is one rank's measured step profile.
type RankReport struct {
	Rank int `json:"rank"`

	// Comm maps "group/op" (e.g. "tp/allreduce", "p2p/send") to the
	// rank's issued traffic. Byte values are closed-form collective
	// volumes — what internal/comm reports to its Meter — so they compare
	// exactly against the sim/cost predictions.
	Comm map[string]OpVolume `json:"comm"`

	// Wall-time decomposition, folded from the step's trace events.
	// ComputeSeconds is time inside scheduled pipeline ops excluding P2P
	// waits (it includes in-op collectives, which CommSeconds also counts
	// — the two views overlap by construction). P2PWaitSeconds is time
	// blocked on pipeline sends' arrival. IdleSeconds is wall time outside
	// scheduled ops: optimizer step, FSDP collectives, scheduling gaps.
	CommSeconds    float64 `json:"comm_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	P2PWaitSeconds float64 `json:"p2p_wait_seconds"`
	IdleSeconds    float64 `json:"idle_seconds"`

	// Handle-based (nonblocking) communication time, split into the
	// portion the rank actually stalled on (blocked in Wait — exposed) and
	// the portion hidden behind compute between issue and Wait
	// (overlapped). Blocking collectives land entirely in CommSeconds;
	// handle ops land here instead, so CommSeconds keeps its meaning
	// across synchronous and overlapped runs.
	ExposedCommSeconds float64 `json:"exposed_comm_seconds"`
	OverlapCommSeconds float64 `json:"overlap_comm_seconds"`

	// Overlapped maps "group/op" to the traffic issued nonblocking — a
	// subset of Comm (every handle op is also metered there). The xval
	// sweep asserts this split exactly against the overlap configuration.
	Overlapped map[string]OpVolume `json:"overlapped,omitempty"`

	// PeakActivationBytes is the high-water mark of deduplicated live
	// activation tensor bytes across the rank's in-flight micro-batch
	// contexts (sampled after every executed op). PeakLiveContexts is the
	// measured counterpart of Schedule.PeakInFlight.
	PeakActivationBytes int64 `json:"peak_activation_bytes"`
	PeakLiveContexts    int   `json:"peak_live_contexts"`

	// Ops is the executed schedule op log in issue order — the measured
	// schedule, replayable through the analytic Timeline for bubble-ratio
	// conformance.
	Ops []pp.Op `json:"ops"`

	// Attn is this rank's own blocked-attention census for the step (the
	// per-rank attention.Recorder threaded through the model environments),
	// with the rank's effective and nominal attention-matmul FLOPs.
	// StepReport.Attn is the sum of these over ranks; the per-rank view is
	// what the workload-balance planner equalises and the imbalance summary
	// ranks. All-zero when the rank ran no attention (a pipeline stage with
	// no transformer layers).
	Attn             attention.Stats `json:"rank_attn"`
	AttnEffFLOPs     int64           `json:"attn_eff_flops"`
	AttnNominalFLOPs int64           `json:"attn_nominal_flops"`
}

// ImbalanceSummary is the per-rank workload-skew digest of one step: how
// unevenly the mask-aware effective attention FLOPs landed across the ranks
// that performed attention. MaxMeanRatio is 1.0 for perfect balance; the
// straggler is the rank pinning the step.
type ImbalanceSummary struct {
	MaxMeanRatio float64 `json:"max_mean_ratio"`
	Straggler    int     `json:"straggler_rank"`
	MaxEffFLOPs  int64   `json:"max_eff_flops"`
	MeanEffFLOPs float64 `json:"mean_eff_flops"`
}

// ComputeImbalance builds the summary from per-rank effective-FLOP loads
// (index = rank id). Ranks with zero load carry no attention (e.g. pipeline
// stages holding only the embedding or head) and are excluded from the mean
// so structural placement doesn't masquerade as workload skew. Returns nil
// when no rank recorded any attention — degenerate worlds have no imbalance
// to report. Exported so the closed-form predictor can produce the modeled
// summary with identical arithmetic (xval asserts the two equal).
func ComputeImbalance(eff []int64) *ImbalanceSummary {
	var sum, maxv int64
	n := 0
	straggler := -1
	for rank, e := range eff {
		if e == 0 {
			continue
		}
		sum += e
		n++
		if e > maxv {
			maxv, straggler = e, rank
		}
	}
	if n == 0 {
		return nil
	}
	mean := float64(sum) / float64(n)
	return &ImbalanceSummary{
		MaxMeanRatio: float64(maxv) / mean,
		Straggler:    straggler,
		MaxEffFLOPs:  maxv,
		MeanEffFLOPs: mean,
	}
}

// StepReport is the measured profile of one training step.
type StepReport struct {
	Step        int64   `json:"step"`
	WallSeconds float64 `json:"wall_seconds"`

	// FLOPs is the world-total nominal matmul FLOP count of the step
	// (tensor.FLOPCount delta). Ranks are goroutines sharing one counter,
	// so attribution is per step, not per rank.
	FLOPs int64 `json:"flops"`

	// EffectiveFLOPs is the world-total mask-aware FLOP count of the step
	// (tensor.EffectiveFLOPCount delta): nominal minus the work the blocked
	// attention engine skipped as empty tiles. Equals FLOPs when nothing was
	// block-skipped; xval asserts it against the closed-form tile prediction.
	EffectiveFLOPs int64 `json:"effective_flops"`

	// Attn is the step's attention-sparsity profile, summed over this
	// registry's per-rank recorders: kernel calls, allowed/total score pairs
	// under the mask, and the full/partial/empty tile census of the blocked
	// engine. Another cluster's calls in the same process never appear here.
	Attn attention.Stats `json:"attn"`

	// Pool is the tensor arena traffic of the step (DefaultPoolStats delta).
	Pool tensor.PoolStats `json:"pool"`

	// PoolTags breaks the arena traffic down by caller tag
	// (DefaultPoolTagStats delta) — how KV-cache page churn stays
	// distinguishable from the rest of the world's Get/Put traffic.
	// Tags with no traffic during the step are omitted.
	PoolTags map[string]tensor.PoolStats `json:"pool_tags,omitempty"`

	// Imbalance summarises the per-rank effective-FLOP skew of the step
	// (from the per-rank attention recorders); nil when no rank recorded
	// attention work.
	Imbalance *ImbalanceSummary `json:"imbalance,omitempty"`

	Ranks []RankReport `json:"ranks"`
}

type rankState struct {
	mu         sync.Mutex
	comm       map[comm.OpKey]OpVolume
	overlapped map[comm.OpKey]OpVolume
	exposed    float64
	overlap    float64
	p2pWait    float64
	peakByte   int64
	peakCtx    int
	ops        []pp.Op
}

// Registry collects per-rank, per-step measurements from a live cluster. It
// implements comm.Recorder, comm.Meter, and pp.Observer; core.Cluster.Attach
// wires all three. Per-rank state is lock-sharded, so concurrent rank
// goroutines never contend on one mutex; BeginStep/EndStep must be called
// while no ranks are running (between steps).
type Registry struct {
	start    time.Time
	ranks    []*rankState
	attnRecs []*attention.Recorder

	evMu       sync.Mutex
	events     []trace.Event // every step's events, in record order
	stepEvent0 int           // len(events) at BeginStep: EndStep folds events[stepEvent0:]

	stepStart time.Time
	step      int64
	flops0    int64
	effFlops0 int64
	pool0     tensor.PoolStats
	poolTags0 map[string]tensor.PoolStats
}

// NewRegistry creates a registry for a world of nRanks ranks.
func NewRegistry(nRanks int) *Registry {
	r := &Registry{
		start:    time.Now(),
		ranks:    make([]*rankState, nRanks),
		attnRecs: make([]*attention.Recorder, nRanks),
	}
	for i := range r.ranks {
		r.ranks[i] = &rankState{
			comm:       make(map[comm.OpKey]OpVolume),
			overlapped: make(map[comm.OpKey]OpVolume),
		}
		r.attnRecs[i] = &attention.Recorder{}
	}
	return r
}

// AttnRecorder returns rank's per-rank attention census recorder. The
// trainer threads it into the rank's model environments; the recorder is
// written only by that rank's goroutine and read by EndStep after the
// step's goroutines have joined.
func (r *Registry) AttnRecorder(rank int) *attention.Recorder {
	if rank < 0 || rank >= len(r.attnRecs) {
		panic(fmt.Sprintf("metrics: rank %d outside registry of %d ranks", rank, len(r.attnRecs)))
	}
	return r.attnRecs[rank]
}

func (r *Registry) rank(rank int) *rankState {
	if rank < 0 || rank >= len(r.ranks) {
		panic(fmt.Sprintf("metrics: rank %d outside registry of %d ranks", rank, len(r.ranks)))
	}
	return r.ranks[rank]
}

// now returns seconds since the registry was created — the trace timebase.
func (r *Registry) now() float64 { return time.Since(r.start).Seconds() }

func (r *Registry) recordEvent(e trace.Event) {
	r.evMu.Lock()
	r.events = append(r.events, e)
	r.evMu.Unlock()
}

// RecordComm implements comm.Recorder: one collective's wall time lands on
// the shared trace as a comm event.
func (r *Registry) RecordComm(rank int, label string, dur float64) {
	r.recordEvent(trace.Event{
		Rank: rank, Kind: trace.Comm, Group: label, Name: label + ".collective",
		Start: r.now() - dur, Dur: dur,
	})
}

// RecordOverlap implements comm.OverlapRecorder: one handle-based op's
// issue-to-completion span lands on the trace as an overlap event, and its
// time splits into the exposed (blocked in Wait) and overlapped (hidden
// behind compute) accumulators. The op's bytes also join the per-rank
// overlapped-volume breakdown, which xval asserts against the overlap
// configuration's predicted split.
func (r *Registry) RecordOverlap(rank int, group, op string, bytes int64, total, exposed float64) {
	end := r.now()
	r.recordEvent(trace.Event{
		Rank: rank, Kind: trace.Overlap, Group: group, Name: group + "." + op + ".async",
		Start: end - total, Dur: total,
	})
	rs := r.rank(rank)
	k := comm.OpKey{Group: group, Op: op}
	rs.mu.Lock()
	v := rs.overlapped[k]
	v.Bytes += bytes
	v.Msgs++
	rs.overlapped[k] = v
	rs.exposed += exposed
	if total > exposed {
		rs.overlap += total - exposed
	}
	rs.mu.Unlock()
}

// RecordOp implements comm.Meter: per-rank (group, op) byte/message counts.
func (r *Registry) RecordOp(rank int, group, op string, bytes int64) {
	rs := r.rank(rank)
	k := comm.OpKey{Group: group, Op: op}
	rs.mu.Lock()
	v := rs.comm[k]
	v.Bytes += bytes
	v.Msgs++
	rs.comm[k] = v
	rs.mu.Unlock()
}

// OpExecuted implements pp.Observer: the executed op joins the rank's op
// log, its timing lands on the trace (compute, with the P2P wait split out
// as an idle event), and the live activation footprint updates the rank's
// high-water marks.
func (r *Registry) OpExecuted(rank int, op pp.Op, dur, p2pWait float64, liveBytes int64, liveContexts int) {
	end := r.now()
	name := fmt.Sprintf("%s s%d mb%d", op.Kind, op.Stage, op.MB)
	if p2pWait > 0 {
		r.recordEvent(trace.Event{
			Rank: rank, Kind: trace.Idle, Group: "pp", Name: name + " wait",
			Start: end - dur, Dur: p2pWait,
		})
	}
	r.recordEvent(trace.Event{
		Rank: rank, Kind: trace.Compute, Name: name,
		Start: end - dur + p2pWait, Dur: dur - p2pWait,
	})

	rs := r.rank(rank)
	rs.mu.Lock()
	rs.p2pWait += p2pWait
	if liveBytes > rs.peakByte {
		rs.peakByte = liveBytes
	}
	if liveContexts > rs.peakCtx {
		rs.peakCtx = liveContexts
	}
	rs.ops = append(rs.ops, op)
	rs.mu.Unlock()
}

// Trace returns a snapshot of the collected event trace (all steps).
func (r *Registry) Trace() *trace.Trace {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	return &trace.Trace{Events: append([]trace.Event(nil), r.events...)}
}

// BeginStep resets the per-step state and snapshots the world-global
// counters (FLOPs, pool) so EndStep can report deltas.
func (r *Registry) BeginStep(step int64) {
	r.step = step
	r.stepStart = time.Now()
	r.evMu.Lock()
	r.stepEvent0 = len(r.events)
	r.evMu.Unlock()
	r.flops0 = tensor.FLOPCount()
	r.effFlops0 = tensor.EffectiveFLOPCount()
	r.pool0 = tensor.DefaultPoolStats()
	r.poolTags0 = tensor.DefaultPoolTagStats()
	for _, rec := range r.attnRecs {
		rec.Reset()
	}
	for _, rs := range r.ranks {
		rs.mu.Lock()
		rs.comm = make(map[comm.OpKey]OpVolume)
		rs.overlapped = make(map[comm.OpKey]OpVolume)
		rs.exposed = 0
		rs.overlap = 0
		rs.p2pWait = 0
		rs.peakByte = 0
		rs.peakCtx = 0
		rs.ops = nil
		rs.mu.Unlock()
	}
}

// EndStep folds the step's measurements into a StepReport.
func (r *Registry) EndStep() *StepReport {
	wall := time.Since(r.stepStart).Seconds()
	pool := tensor.DefaultPoolStats()
	rep := &StepReport{
		Step:           r.step,
		WallSeconds:    wall,
		FLOPs:          tensor.FLOPCount() - r.flops0,
		EffectiveFLOPs: tensor.EffectiveFLOPCount() - r.effFlops0,
		Pool: tensor.PoolStats{
			Gets: pool.Gets - r.pool0.Gets, Hits: pool.Hits - r.pool0.Hits,
			Puts: pool.Puts - r.pool0.Puts, Rejects: pool.Rejects - r.pool0.Rejects,
		},
	}
	for tag, v := range tensor.DefaultPoolTagStats() {
		v0 := r.poolTags0[tag]
		d := tensor.PoolStats{
			Gets: v.Gets - v0.Gets, Hits: v.Hits - v0.Hits,
			Puts: v.Puts - v0.Puts, Rejects: v.Rejects - v0.Rejects,
		}
		if d == (tensor.PoolStats{}) {
			continue
		}
		if rep.PoolTags == nil {
			rep.PoolTags = make(map[string]tensor.PoolStats)
		}
		rep.PoolTags[tag] = d
	}
	// Fold wall time in from this step's trace events only, one pass
	// bucketed by rank: the cost is this step's events, not the registry's
	// lifetime.
	commSec := make([]float64, len(r.ranks))
	computeSec := make([]float64, len(r.ranks))
	r.evMu.Lock()
	for _, e := range r.events[r.stepEvent0:] {
		if e.Rank < 0 || e.Rank >= len(r.ranks) {
			continue
		}
		switch e.Kind {
		case trace.Comm:
			commSec[e.Rank] += e.Dur
		case trace.Compute:
			computeSec[e.Rank] += e.Dur
		}
	}
	r.evMu.Unlock()
	effs := make([]int64, len(r.ranks))
	for rank, rs := range r.ranks {
		rec := r.attnRecs[rank]
		effs[rank] = rec.EffFLOPs
		rep.Attn = rep.Attn.Add(rec.Stats)
		rs.mu.Lock()
		rr := RankReport{
			Rank:                rank,
			Comm:                make(map[string]OpVolume, len(rs.comm)),
			ExposedCommSeconds:  rs.exposed,
			OverlapCommSeconds:  rs.overlap,
			P2PWaitSeconds:      rs.p2pWait,
			PeakActivationBytes: rs.peakByte,
			PeakLiveContexts:    rs.peakCtx,
			Ops:                 append([]pp.Op(nil), rs.ops...),
			CommSeconds:         commSec[rank],
			ComputeSeconds:      computeSec[rank],
			Attn:                rec.Stats,
			AttnEffFLOPs:        rec.EffFLOPs,
			AttnNominalFLOPs:    rec.NominalFLOPs,
		}
		for k, v := range rs.comm {
			rr.Comm[k.Group+"/"+k.Op] = v
		}
		if len(rs.overlapped) > 0 {
			rr.Overlapped = make(map[string]OpVolume, len(rs.overlapped))
			for k, v := range rs.overlapped {
				rr.Overlapped[k.Group+"/"+k.Op] = v
			}
		}
		rs.mu.Unlock()
		idle := wall - rr.ComputeSeconds - rr.P2PWaitSeconds
		if idle < 0 {
			idle = 0
		}
		rr.IdleSeconds = idle
		rep.Ranks = append(rep.Ranks, rr)
	}
	rep.Imbalance = ComputeImbalance(effs)
	return rep
}

// TotalCommBytes sums the report's measured communication bytes over all
// ranks, optionally restricted to one group label ("" sums everything).
func (s *StepReport) TotalCommBytes(group string) int64 {
	var total int64
	for _, rr := range s.Ranks {
		for k, v := range rr.Comm {
			if group != "" && !strings.HasPrefix(k, group+"/") {
				continue
			}
			total += v.Bytes
		}
	}
	return total
}

// OverlappedCommBytes sums the report's nonblocking-issued communication
// bytes over all ranks, optionally restricted to one group label ("" sums
// everything). Always ≤ TotalCommBytes for the same group.
func (s *StepReport) OverlappedCommBytes(group string) int64 {
	var total int64
	for _, rr := range s.Ranks {
		for k, v := range rr.Overlapped {
			if group != "" && !strings.HasPrefix(k, group+"/") {
				continue
			}
			total += v.Bytes
		}
	}
	return total
}

// OverlapFraction returns the fraction of handle-issued communication time
// that was hidden behind compute, summed over all ranks:
// overlapped / (overlapped + exposed). Returns 0 when no nonblocking
// communication was issued. This is the measured counterpart of the sim
// engine's modeled DP-overlap fraction (§7.3.1).
func (s *StepReport) OverlapFraction() float64 {
	var exp, ovl float64
	for _, rr := range s.Ranks {
		exp += rr.ExposedCommSeconds
		ovl += rr.OverlapCommSeconds
	}
	if exp+ovl == 0 {
		return 0
	}
	return ovl / (exp + ovl)
}

// Table renders the report as a fixed-width table: one row per rank plus a
// world-summary header.
func (s *StepReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d: wall %.3fs, %s matmul FLOPs, pool gets=%d hits=%d puts=%d rejects=%d\n",
		s.Step, s.WallSeconds, humanCount(s.FLOPs), s.Pool.Gets, s.Pool.Hits, s.Pool.Puts, s.Pool.Rejects)
	if len(s.PoolTags) > 0 {
		tags := make([]string, 0, len(s.PoolTags))
		for tag := range s.PoolTags {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			v := s.PoolTags[tag]
			fmt.Fprintf(&b, "  pool[%s]: gets=%d hits=%d puts=%d rejects=%d (leaked=%d)\n",
				tag, v.Gets, v.Hits, v.Puts, v.Rejects, v.Gets-v.Puts)
		}
	}
	if s.Attn.Calls > 0 {
		fmt.Fprintf(&b, "attn: %d kernel calls, %d/%d pairs allowed (%.1f%%), tiles full=%d partial=%d empty=%d, effective FLOPs %s (%.1f%% of nominal)\n",
			s.Attn.Calls, s.Attn.AllowedPairs, s.Attn.TotalPairs,
			100*float64(s.Attn.AllowedPairs)/float64(max64(s.Attn.TotalPairs, 1)),
			s.Attn.FullTiles, s.Attn.PartialTiles, s.Attn.EmptyTiles,
			humanCount(s.EffectiveFLOPs),
			100*float64(s.EffectiveFLOPs)/float64(max64(s.FLOPs, 1)))
	}
	if s.Imbalance != nil {
		fmt.Fprintf(&b, "attn imbalance: max/mean eff FLOPs %.3f, straggler rank %d (max %s, mean %s)\n",
			s.Imbalance.MaxMeanRatio, s.Imbalance.Straggler,
			humanCount(s.Imbalance.MaxEffFLOPs), humanCount(int64(s.Imbalance.MeanEffFLOPs)))
	}
	fmt.Fprintf(&b, "%4s %12s %10s %10s %10s %10s %10s %10s %12s %6s\n",
		"rank", "comm bytes", "comm s", "compute s", "p2p-wait s", "idle s", "exposed s", "hidden s", "peak act", "ctxs")
	for _, rr := range s.Ranks {
		var bytes int64
		for _, v := range rr.Comm {
			bytes += v.Bytes
		}
		fmt.Fprintf(&b, "%4d %12d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %12d %6d\n",
			rr.Rank, bytes, rr.CommSeconds, rr.ComputeSeconds, rr.P2PWaitSeconds,
			rr.IdleSeconds, rr.ExposedCommSeconds, rr.OverlapCommSeconds,
			rr.PeakActivationBytes, rr.PeakLiveContexts)
	}
	// Per-(group, op) world totals, sorted for stable output; the overlapped
	// column shows how much of each op's traffic was issued nonblocking.
	totals := map[string]OpVolume{}
	overlapped := map[string]OpVolume{}
	for _, rr := range s.Ranks {
		for k, v := range rr.Comm {
			t := totals[k]
			t.Bytes += v.Bytes
			t.Msgs += v.Msgs
			totals[k] = t
		}
		for k, v := range rr.Overlapped {
			t := overlapped[k]
			t.Bytes += v.Bytes
			t.Msgs += v.Msgs
			overlapped[k] = t
		}
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("comm by (group, op):\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-20s %12d bytes %8d msgs", k, totals[k].Bytes, totals[k].Msgs)
		if o, ok := overlapped[k]; ok {
			fmt.Fprintf(&b, "   (%d bytes overlapped)", o.Bytes)
		}
		b.WriteByte('\n')
	}
	if f := s.OverlapFraction(); f > 0 {
		fmt.Fprintf(&b, "overlap fraction (hidden / async comm time): %.3f\n", f)
	}
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func humanCount(n int64) string {
	switch {
	case n >= 1e12:
		return fmt.Sprintf("%.2fT", float64(n)/1e12)
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.2fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}
