package pp

import (
	"fmt"
	"time"

	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// Observer watches one rank's schedule execution op by op — the measured
// counterpart of the analytic Timeline. After every executed op it receives
// the op, its wall time (split into the P2P wait portion and the rest), and
// the live activation footprint: deduplicated bytes of every activation
// tensor retained by the rank's in-flight micro-batch contexts, plus the
// context count (the measured Schedule.PeakInFlight input). Implementations
// must be safe for concurrent use by all ranks.
type Observer interface {
	OpExecuted(rank int, op Op, dur, p2pWait float64, liveBytes int64, liveContexts int)
}

// ParamGatherer coordinates sharded-parameter residency with stage compute:
// the executor calls Ensure* immediately before a fragment's first use in an
// op, letting FSDP ZeRO-3 wait that fragment's in-flight all-gather and
// issue the next prefetch — the "gather layer i+1 while layer i computes"
// overlap of §7.3.1. The executor makes these calls in schedule order, which
// is identical on every rank of a data-parallel group, so the nonblocking
// collective sequences stay aligned. Nil disables the hooks.
type ParamGatherer interface {
	EnsureEmbed(vstage int)
	EnsureLayer(vstage, layer int)
	EnsureHead(vstage int)
}

// Stage holds the model fragment of one virtual pipeline stage. Embed is
// non-nil only on global stage 0, Head only on the last global stage — the
// placement whose memory/compute skew motivates the paper's balanced-PP
// co-design (§3.1.2).
type Stage struct {
	Embed  model.TokenEmbedder
	Layers []model.Layer
	Head   model.LossHead
}

// Params returns all parameters owned by the stage.
func (s *Stage) Params() []*model.Param {
	var ps []*model.Param
	if s.Embed != nil {
		ps = append(ps, s.Embed.Params()...)
	}
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	if s.Head != nil {
		ps = append(ps, s.Head.Params()...)
	}
	return ps
}

// Microbatch is the unit of pipeline execution: a list of samples with their
// attention environments and per-sample gradient scale. Scale applies to all
// samples; Scales, if non-nil, overrides it per sample (context parallelism
// needs per-sample token-count weighting).
type Microbatch struct {
	Samples []*model.Sample
	Envs    []*model.Env
	Scale   float32
	Scales  []float32
	// Weights, if non-nil, weight each sample's head loss in the returned
	// loss sum (context parallelism weights by local/total token counts so
	// that summing across CP ranks yields the full-sample token mean).
	Weights []float64
	// Tags, if non-nil, give each sample a caller-chosen stable identity
	// (e.g. its corpus index) reported through Executor.OnLoss — how the
	// balance benchmarks compare per-sample losses across placements that
	// assign samples to different ranks and micro-batches.
	Tags []int64
}

func (m *Microbatch) scale(i int) float32 {
	if m.Scales != nil {
		return m.Scales[i]
	}
	return m.Scale
}

// Executor runs a schedule's ops for one rank over real tensors, exchanging
// activations and gradients through decoupled asynchronous P2P.
type Executor struct {
	World  *comm.World
	Group  *comm.Group // pipeline group; local rank order = pipeline order
	Rank   int         // global rank
	Sched  *Schedule
	Stages []*Stage // local virtual stages

	// PeakLiveContexts records, after RunStep, the maximum number of
	// micro-batch forward contexts simultaneously held — the measured
	// counterpart of Schedule.PeakInFlight.
	PeakLiveContexts int

	// OnBackward, if set, runs after every backward op (stage, mb). FSDP
	// ZeRO-2 hooks its per-micro-batch gradient reduce-scatter here (Fig 4c);
	// the hook must perform the same collectives on every rank of the data
	// parallel group, which holds because those ranks share one schedule.
	OnBackward func(vstage, mb int)

	// Obs, if set, observes every executed op with timing and the live
	// activation footprint (internal/metrics). Set it before RunStep.
	Obs Observer

	// OnLoss, if set, receives each tagged sample's unweighted head loss as
	// it is computed (last-stage ranks only, and only for micro-batches whose
	// Tags field is populated). Called from this rank's goroutine.
	OnLoss func(tag int64, loss float64)

	// Gather, if set, is called before each model fragment's compute so a
	// ZeRO-3 shard can overlap parameter all-gathers with execution.
	Gather ParamGatherer

	// RecvAhead, when positive, pre-posts each activation/gradient receive
	// up to RecvAhead schedule ops before the op that consumes it, so the
	// transfer overlaps the intervening compute. 0 keeps the synchronous
	// blocking-Recv path.
	RecvAhead int

	// AsyncSend, when true, issues activation/gradient sends as
	// nonblocking handles, drained at the end of the step. Payloads are
	// cloned at issue, so compute may immediately reuse the buffers.
	AsyncSend bool
}

const ppTagBase = 1 << 21

func fwdTag(stages, g, mb int) int { return ppTagBase + 2*(mb*stages+g) }
func bwdTag(stages, g, mb int) int { return ppTagBase + 2*(mb*stages+g) + 1 }

// mbState holds the in-flight state of one micro-batch on one stage.
type mbState struct {
	inputs   []*tensor.Tensor   // per-sample stage inputs (for re-chunking dx)
	outs     [][]*tensor.Tensor // [sample][layer] outputs, released by Bwd
	layerCtx [][]any            // [sample][layer]
	headCtx  []any
	embCtx   []any
	mb       *Microbatch
}

// RunStep executes the rank's schedule over the given micro-batches and
// returns the summed loss of samples whose head ran on this rank (non-zero
// only on the last pipeline rank) and the number of such samples.
func (e *Executor) RunStep(mbs []*Microbatch) (lossSum float64, nSamples int) {
	if len(mbs) != e.Sched.NMB {
		panic(fmt.Sprintf("pp: %d micro-batches for schedule with nmb=%d", len(mbs), e.Sched.NMB))
	}
	lr := e.Group.LocalRank(e.Rank)
	stages := e.Sched.Stages()
	ops := e.Sched.Ranks[lr]
	live := make(map[[2]int]*mbState) // (vstage, mb) -> state
	e.PeakLiveContexts = 0

	// Pre-posting plan: every receive the schedule will perform, in op
	// order, so IRecvs can be issued up to RecvAhead ops before the
	// consuming op. Tags are unique per (stage, mb, direction), so an early
	// post can never capture another op's message.
	type recvSrc struct {
		idx  int // index of the op that consumes the receive
		from int // global sender rank
		tag  int
	}
	var plan []recvSrc
	if e.RecvAhead > 0 {
		for i, op := range ops {
			g := e.Sched.GlobalStage(lr, op.Stage)
			switch {
			case op.Kind == Fwd && g > 0:
				pr, _ := e.Sched.StageOwner(g - 1)
				plan = append(plan, recvSrc{i, e.Group.GlobalRank(pr), fwdTag(stages, g, op.MB)})
			case op.Kind == Bwd && g < stages-1:
				nr, _ := e.Sched.StageOwner(g + 1)
				plan = append(plan, recvSrc{i, e.Group.GlobalRank(nr), bwdTag(stages, g, op.MB)})
			}
		}
	}
	posted := make(map[int]*comm.Handle) // consuming op index -> handle
	np := 0
	var sendHs []*comm.Handle
	recvPacked := func(idx int, from, tag int) *tensor.Tensor {
		if h, ok := posted[idx]; ok {
			delete(posted, idx)
			return h.Wait()
		}
		return e.World.Recv(e.Rank, from, tag)
	}
	send := func(to, tag int, t *tensor.Tensor) {
		if e.AsyncSend {
			sendHs = append(sendHs, e.World.ISend(e.Rank, to, tag, t))
			return
		}
		e.World.Send(e.Rank, to, tag, t)
	}

	for idx, op := range ops {
		for np < len(plan) && plan[np].idx <= idx+e.RecvAhead {
			posted[plan[np].idx] = e.World.IRecv(e.Rank, plan[np].from, plan[np].tag)
			np++
		}
		opStart := time.Now()
		var p2pWait float64
		g := e.Sched.GlobalStage(lr, op.Stage)
		stage := e.Stages[op.Stage]
		mb := mbs[op.MB]
		keyID := [2]int{op.Stage, op.MB}
		switch op.Kind {
		case Fwd:
			st := &mbState{mb: mb}
			var xs []*tensor.Tensor
			if g == 0 {
				if e.Gather != nil {
					e.Gather.EnsureEmbed(op.Stage)
				}
				for i, s := range mb.Samples {
					x, ec := stage.Embed.Forward(s.Tokens)
					st.embCtx = append(st.embCtx, ec)
					xs = append(xs, x)
					_ = i
				}
			} else {
				prevRank, _ := e.Sched.StageOwner(g - 1)
				t0 := time.Now()
				packed := recvPacked(idx, e.Group.GlobalRank(prevRank), fwdTag(stages, g, op.MB))
				p2pWait += time.Since(t0).Seconds()
				xs = unpackRows(packed, len(mb.Samples))
				tensor.Put(packed)
			}
			st.inputs = xs
			outs := make([]*tensor.Tensor, len(xs))
			st.outs = make([][]*tensor.Tensor, len(xs))
			st.layerCtx = make([][]any, len(xs))
			for i, x := range xs {
				cur := x
				for li, l := range stage.Layers {
					if e.Gather != nil {
						e.Gather.EnsureLayer(op.Stage, li)
					}
					var c any
					cur, c = l.Forward(cur, mb.Envs[i])
					st.layerCtx[i] = append(st.layerCtx[i], c)
					st.outs[i] = append(st.outs[i], cur)
				}
				outs[i] = cur
			}
			if g == stages-1 {
				if e.Gather != nil {
					e.Gather.EnsureHead(op.Stage)
				}
				for i, out := range outs {
					loss, hc := stage.Head.ForwardLoss(out, mb.Samples[i].Targets, mb.scale(i), mb.Envs[i])
					st.headCtx = append(st.headCtx, hc)
					if e.OnLoss != nil && mb.Tags != nil {
						e.OnLoss(mb.Tags[i], loss)
					}
					w := 1.0
					if mb.Weights != nil {
						w = mb.Weights[i]
					}
					lossSum += loss * w
					nSamples++
				}
			} else {
				nextRank, _ := e.Sched.StageOwner(g + 1)
				packed := packRows(outs)
				send(e.Group.GlobalRank(nextRank), fwdTag(stages, g+1, op.MB), packed)
				tensor.Put(packed) // the send cloned it
			}
			live[keyID] = st
			if len(live) > e.PeakLiveContexts {
				e.PeakLiveContexts = len(live)
			}

		case Bwd:
			st, ok := live[keyID]
			if !ok {
				panic(fmt.Sprintf("pp: backward before forward for stage %d mb %d", op.Stage, op.MB))
			}
			var dys []*tensor.Tensor
			if g == stages-1 {
				for _, hc := range st.headCtx {
					dys = append(dys, e.Stages[op.Stage].Head.BackwardLoss(hc))
				}
			} else {
				nextRank, _ := e.Sched.StageOwner(g + 1)
				t0 := time.Now()
				packed := recvPacked(idx, e.Group.GlobalRank(nextRank), bwdTag(stages, g, op.MB))
				p2pWait += time.Since(t0).Seconds()
				dys = unpackRows(packed, len(mb.Samples))
				tensor.Put(packed)
			}
			// Each buffer of the residual stream goes back to the pool at its
			// last use. A layer's incoming gradient is dead once that layer's
			// backward ran, and so is its output: the next layer (or the
			// head), which saved it as input, ran its backward first, and a
			// block's own context aliases it (the saved input of its second
			// norm). The stage input outlives the first layer's backward.
			dxs := make([]*tensor.Tensor, len(dys))
			for i, dy := range dys {
				cur := dy
				for li := len(stage.Layers) - 1; li >= 0; li-- {
					dx := stage.Layers[li].Backward(st.layerCtx[i][li], cur)
					tensor.Put(cur, st.outs[i][li])
					cur = dx
				}
				tensor.Put(st.inputs[i])
				dxs[i] = cur
			}
			if g == 0 {
				for i, dx := range dxs {
					stage.Embed.Backward(st.embCtx[i], dx)
				}
			} else {
				prevRank, _ := e.Sched.StageOwner(g - 1)
				packed := packRows(dxs)
				send(e.Group.GlobalRank(prevRank), bwdTag(stages, g-1, op.MB), packed)
				tensor.Put(packed)
			}
			tensor.Put(dxs...)
			delete(live, keyID) // release activation memory (§6.3)
			if e.OnBackward != nil {
				e.OnBackward(op.Stage, op.MB)
			}
		}
		if e.Obs != nil {
			e.Obs.OpExecuted(e.Rank, op, time.Since(opStart).Seconds(), p2pWait,
				liveActivationBytes(live), len(live))
		}
	}
	// Drain async sends: every message is already cloned and accounted at
	// issue; waiting records the overlapped portion of the transfer time.
	for _, h := range sendHs {
		h.Wait()
	}
	if len(live) != 0 {
		panic(fmt.Sprintf("pp: %d micro-batch contexts leaked after step", len(live)))
	}
	return lossSum, nSamples
}

// RunForward executes only the forward half of the schedule — an evaluation
// pass: activations flow through the pipeline, losses accumulate on the last
// stage, and no context is retained (no gradients, no activation memory).
func (e *Executor) RunForward(mbs []*Microbatch) (lossSum float64, nSamples int) {
	if len(mbs) != e.Sched.NMB {
		panic(fmt.Sprintf("pp: %d micro-batches for schedule with nmb=%d", len(mbs), e.Sched.NMB))
	}
	lr := e.Group.LocalRank(e.Rank)
	stages := e.Sched.Stages()
	for _, op := range e.Sched.Ranks[lr] {
		if op.Kind != Fwd {
			continue
		}
		g := e.Sched.GlobalStage(lr, op.Stage)
		stage := e.Stages[op.Stage]
		mb := mbs[op.MB]
		var xs []*tensor.Tensor
		if g == 0 {
			for _, s := range mb.Samples {
				x, _ := stage.Embed.Forward(s.Tokens)
				xs = append(xs, x)
			}
		} else {
			prevRank, _ := e.Sched.StageOwner(g - 1)
			packed := e.World.Recv(e.Rank, e.Group.GlobalRank(prevRank), fwdTag(stages, g, op.MB))
			xs = unpackRows(packed, len(mb.Samples))
		}
		outs := make([]*tensor.Tensor, len(xs))
		for i, x := range xs {
			cur := x
			for _, l := range stage.Layers {
				cur, _ = l.Forward(cur, mb.Envs[i])
			}
			outs[i] = cur
		}
		if g == stages-1 {
			for i, out := range outs {
				loss, _ := stage.Head.ForwardLoss(out, mb.Samples[i].Targets, mb.scale(i), mb.Envs[i])
				w := 1.0
				if mb.Weights != nil {
					w = mb.Weights[i]
				}
				lossSum += loss * w
				nSamples++
			}
		} else {
			nextRank, _ := e.Sched.StageOwner(g + 1)
			e.World.Send(e.Rank, e.Group.GlobalRank(nextRank), fwdTag(stages, g+1, op.MB), packRows(outs))
		}
	}
	return lossSum, nSamples
}

// liveActivationBytes measures the rank's current activation footprint: the
// bytes of every distinct activation tensor retained by in-flight
// micro-batch contexts (stage inputs, per-layer saved tensors, head
// contexts). Residual-stream aliasing — a block's output pointer doubles as
// the next block's saved input — is resolved by pointer deduplication, so
// the measurement counts each buffer once, exactly as a real allocator
// would.
func liveActivationBytes(live map[[2]int]*mbState) int64 {
	seen := make(map[*tensor.Tensor]struct{})
	var bytes int64
	visit := func(t *tensor.Tensor) {
		if _, ok := seen[t]; ok {
			return
		}
		seen[t] = struct{}{}
		bytes += int64(t.Len()) * 4
	}
	for _, st := range live {
		for _, x := range st.inputs {
			if x != nil {
				visit(x)
			}
		}
		for _, lcs := range st.layerCtx {
			for _, c := range lcs {
				model.VisitSavedCtx(c, visit)
			}
		}
		for _, hc := range st.headCtx {
			model.VisitSavedCtx(hc, visit)
		}
	}
	return bytes
}

// packRows concatenates equal-shaped per-sample tensors for one P2P message.
func packRows(xs []*tensor.Tensor) *tensor.Tensor {
	return tensor.ConcatRows(xs...)
}

// unpackRows splits a packed message back into n per-sample tensors.
func unpackRows(t *tensor.Tensor, n int) []*tensor.Tensor {
	parts := tensor.SplitRows(t, n)
	out := make([]*tensor.Tensor, n)
	for i, p := range parts {
		out[i] = p.Clone()
	}
	return out
}

// StageLayerCounts distributes nLayers across nStages stages. With balanced
// set, the first and last stage get one layer fewer than the (even) middle
// allocation, compensating for the embedding and output head — the paper's
// §3.1.2 co-design: 126 layers on 128 stages puts zero transformer layers
// on the embed and head stages, and 126 layers on 16 ranks (v=1) gives the
// 7/8×14/7 shape. Requires nStages >= 3 for balancing.
func StageLayerCounts(nLayers, nStages int, balanced bool) []int {
	counts := make([]int, nStages)
	if nStages == 1 {
		counts[0] = nLayers
		return counts
	}
	if balanced && nStages >= 3 {
		c0 := (nLayers+nStages-1)/nStages - 1
		if c0 < 0 {
			c0 = 0
		}
		counts[0], counts[nStages-1] = c0, c0
		mid := nLayers - 2*c0
		nMid := nStages - 2
		base := mid / nMid
		rem := mid % nMid
		for i := 1; i < nStages-1; i++ {
			counts[i] = base
			if i <= rem {
				counts[i]++
			}
		}
		return counts
	}
	base := nLayers / nStages
	rem := nLayers % nStages
	for i := range counts {
		counts[i] = base
	}
	for i := 1; rem > 0; i = i%(nStages-1) + 1 {
		counts[i]++
		rem--
	}
	return counts
}

// SplitModel carves a model instance into the local stages of one pipeline
// rank under interleaved placement with the given per-stage layer counts.
// The model's blocks are moved (by reference) into the stages; the caller
// must not also use the model directly.
func SplitModel(m *model.Model, sched *Schedule, localRank int, counts []int) []*Stage {
	nStages := sched.Stages()
	if len(counts) != nStages {
		panic(fmt.Sprintf("pp: %d stage counts for %d stages", len(counts), nStages))
	}
	total := 0
	starts := make([]int, nStages)
	for g, c := range counts {
		starts[g] = total
		total += c
	}
	if total != len(m.Blocks) {
		panic(fmt.Sprintf("pp: stage counts sum to %d, model has %d layers", total, len(m.Blocks)))
	}
	stages := make([]*Stage, sched.V)
	for vs := 0; vs < sched.V; vs++ {
		g := sched.GlobalStage(localRank, vs)
		st := &Stage{}
		for i := 0; i < counts[g]; i++ {
			st.Layers = append(st.Layers, m.Blocks[starts[g]+i])
		}
		if g == 0 {
			st.Embed = m.Embed
		}
		if g == nStages-1 {
			st.Head = m.Head
		}
		stages[vs] = st
	}
	return stages
}
