// Package memsim models per-rank GPU memory under 4D parallelism: parameter
// / gradient / optimizer-state footprints by ZeRO mode, activation memory
// driven by the pipeline schedule's in-flight micro-batches, and the
// gradient-buffer lifetime dynamics of Fig 4. It reproduces the memory
// panels of Figs 9 and 10 and the §3.1.2 balanced-PP analysis.
package memsim

import (
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

// Config describes a memory-accounting scenario.
type Config struct {
	Model model.Config
	TP    int
	CP    int
	DP    int
	Seq   int // full sequence length
	MBS   int // samples per micro-batch

	ZeRO      fsdp.Mode
	Recompute model.RecomputeMode

	Sched *pp.Schedule
	// LayerCounts assigns layers to global stages (pp.StageLayerCounts).
	LayerCounts []int
}

const (
	bf16Bytes = 2
	// AdamW with FP32 master weights: 4 (master) + 4 + 4 (moments) bytes.
	optBytesPerParam = 12
	gib              = 1 << 30
)

// ActivationBytesPerToken estimates the saved-activation footprint of one
// transformer layer per token in BF16 without recomputation. The textbook
// flash-attention accounting is ≈34·h bytes/token; the paper's §6.3 memory
// optimisations (early release of backward-unneeded buffers, manual storage
// resizing) trim that to ≈24·h, which is what lets 405B training turn off
// activation recomputation. Divided by TP under sequence parallelism.
func ActivationBytesPerToken(cfg model.Config, tp int) float64 {
	return 24 * float64(cfg.Dim) / float64(tp)
}

// RecomputeActivationBytesPerToken is the checkpoint-only footprint when
// full activation recomputation is on: just the layer input.
func RecomputeActivationBytesPerToken(cfg model.Config, tp int) float64 {
	return bf16Bytes * float64(cfg.Dim) / float64(tp)
}

// SelectiveActivationBytesPerToken is the footprint under selective
// recomputation (Korthikanti-style): the attention path — including the
// O(seq²) probability matrices — replays, while the FFN path's saved
// intermediates survive, leaving the residual stream plus the three SwiGLU
// buffers per layer: 2·(Dim + 3·Hidden)/tp bytes per token in BF16.
func SelectiveActivationBytesPerToken(cfg model.Config, tp int) float64 {
	return bf16Bytes * float64(cfg.Dim+3*cfg.Hidden) / float64(tp)
}

// RankMemory is the steady-state peak memory of one PP rank in GiB.
type RankMemory struct {
	ParamsGiB     float64
	GradsGiB      float64
	OptimizerGiB  float64
	ActivationGiB float64
}

// TotalGiB sums the components.
func (r RankMemory) TotalGiB() float64 {
	return r.ParamsGiB + r.GradsGiB + r.OptimizerGiB + r.ActivationGiB
}

// stageParams returns the parameter count of one global stage on one TP
// rank (vocab-parallel embedding and head).
func (c Config) stageParams(g int) float64 {
	p := float64(c.LayerCounts[g]) * float64(c.Model.LayerParams()) / float64(c.TP)
	if g == 0 {
		p += float64(c.Model.EmbeddingParams()) / float64(c.TP)
	}
	if g == c.Sched.Stages()-1 {
		p += float64(c.Model.HeadParams()) / float64(c.TP)
	}
	return p
}

// rankParams sums the parameters of all virtual stages of one PP rank.
func (c Config) rankParams(rank int) float64 {
	var p float64
	for vs := 0; vs < c.Sched.V; vs++ {
		p += c.stageParams(c.Sched.GlobalStage(rank, vs))
	}
	return p
}

// stageActBytes returns the activation bytes one in-flight micro-batch pins
// on one global stage.
func (c Config) stageActBytes(g int) float64 {
	tokens := float64(c.Seq) / float64(c.CP) * float64(c.MBS)
	per := ActivationBytesPerToken(c.Model, c.TP)
	switch c.Recompute {
	case model.RecomputeSelective:
		per = SelectiveActivationBytesPerToken(c.Model, c.TP)
	case model.RecomputeFull:
		per = RecomputeActivationBytesPerToken(c.Model, c.TP)
	}
	act := float64(c.LayerCounts[g]) * tokens * per
	if g == c.Sched.Stages()-1 {
		// Head logits dominate the last stage transiently (vocab-parallel).
		act += tokens * float64(c.Model.Vocab) / float64(c.TP) * bf16Bytes
	}
	return act
}

// peakInFlight walks a rank's schedule, tracking the in-flight bytes — each
// forward pins stageBytes(g) of its global stage until the matching
// backward — and returns the peak. stageBytes runs once per virtual stage,
// not once per op.
func (c Config) peakInFlight(rank int, stageBytes func(g int) float64) float64 {
	per := make([]float64, c.Sched.V)
	for vs := range per {
		per[vs] = stageBytes(c.Sched.GlobalStage(rank, vs))
	}
	var cur, peak float64
	for _, op := range c.Sched.Ranks[rank] {
		if op.Kind == pp.Fwd {
			cur += per[op.Stage]
			if cur > peak {
				peak = cur
			}
		} else {
			cur -= per[op.Stage]
		}
	}
	return peak
}

// PeakActivation walks a rank's schedule, tracking the stage-weighted
// in-flight activation bytes, and returns the peak.
func (c Config) PeakActivation(rank int) float64 { return c.peakInFlight(rank, c.stageActBytes) }

// stageFunctionalBytes returns the exact FP32 live-activation bytes one
// in-flight micro-batch pins on one global stage of the *functional*
// cluster — the model the measured live-tensor accounting
// (pp.Executor/internal/metrics) must land on. Unlike the production BF16
// estimate of stageActBytes, this walks the actual retention set of the Go
// implementation: the residual chain (stage input plus one retained stream
// tensor per block, deduplicated across aliased sub-layer contexts), the
// per-block saved activations of the active recompute mode, and the head's
// normed/probability tensors on the last stage.
func (c Config) stageFunctionalBytes(g int, rec model.RecomputeMode) float64 {
	L := c.LayerCounts[g]
	R := c.Seq / c.CP // local rows per sample under CP sharding
	S := c.Seq        // K/V rows after the CP all-gather (== R when CP=1)
	dim := c.Model.Dim
	nHl := c.Model.NHeads / c.TP
	nKVl := c.Model.NKVHeads / c.TP
	hd := c.Model.HeadDim()
	Hl := c.Model.Hidden / c.TP

	// Residual chain: the stage input, plus each block's output — which is
	// the same tensor as the next block's input and the block's own Norm2
	// context, so it counts once. Full recompute retains only block
	// inputs, dropping the last block's output.
	chain := 1
	if L > 0 {
		chain += L - 1
		if rec != model.RecomputeFull {
			chain++
		}
	}
	// Per-block saved activations beyond the residual chain.
	var extras int
	switch rec {
	case model.RecomputeNone:
		// n1 + n2-out, qRot + Wo-input concat, gathered K + V, per-head
		// probabilities, and the three FFN intermediates.
		extras = 2*R*dim + 2*R*nHl*hd + 2*S*nKVl*hd + nHl*R*S + 3*R*Hl
	case model.RecomputeSelective:
		// The FFN path survives (n2-out + a/b/h); attention replays.
		extras = R*dim + 3*R*Hl
	}
	floats := R*dim*chain + L*extras
	if g == c.Sched.Stages()-1 {
		// Head: normed input + (vocab-parallel) probabilities; under full
		// recompute the head's norm context is the only retention of the
		// last block's output, so it re-enters the count.
		floats += R*dim + R*c.Model.Vocab/c.TP
		if rec == model.RecomputeFull && L > 0 {
			floats += R * dim
		}
	}
	return 4 * float64(c.MBS) * float64(floats)
}

// FunctionalActivation predicts the peak live-activation bytes of one rank
// of the functional (FP32, in-process) cluster under the given recompute
// mode, walking the schedule exactly as PeakActivation does. The measured
// counterpart is RankReport.PeakActivationBytes; the cross-validation sweep
// (internal/metrics/xval) asserts they agree.
func (c Config) FunctionalActivation(rank int, rec model.RecomputeMode) float64 {
	return c.peakInFlight(rank, func(g int) float64 { return c.stageFunctionalBytes(g, rec) })
}

// PerRank returns the peak memory of every PP rank.
func (c Config) PerRank() []RankMemory {
	shardDenom := float64(c.DP * c.CP)
	out := make([]RankMemory, c.Sched.PP)
	for r := range out {
		params := c.rankParams(r)
		m := RankMemory{
			ParamsGiB:     params * bf16Bytes / gib,
			OptimizerGiB:  params * optBytesPerParam / shardDenom / gib,
			ActivationGiB: c.PeakActivation(r) / gib,
		}
		switch c.ZeRO {
		case fsdp.ZeRO1:
			m.GradsGiB = params * bf16Bytes / gib // full gradients retained
		case fsdp.ZeRO2, fsdp.ZeRO3:
			m.GradsGiB = params * bf16Bytes / shardDenom / gib
			if c.ZeRO == fsdp.ZeRO3 {
				m.ParamsGiB = params * bf16Bytes / shardDenom / gib
			}
		}
		out[r] = m
	}
	return out
}

// MaxTotalGiB returns the largest per-rank total.
func MaxTotalGiB(ms []RankMemory) float64 {
	var m float64
	for _, r := range ms {
		if t := r.TotalGiB(); t > m {
			m = t
		}
	}
	return m
}

// GradEvent is one step of the gradient-memory staircase of Fig 4.
type GradEvent struct {
	T     float64 // simulated time
	Bytes float64 // live full-gradient bytes on the rank
}

// GradMemoryTimeline reconstructs the gradient-buffer lifetime of one rank
// under a ZeRO mode from a simulated timeline (Fig 4):
//
//   - ZeRO-1: a stage's full gradient buffer materialises at its first
//     backward and survives to the end of the step (one reduce-scatter on
//     the last micro-batch, Fig 4a).
//   - ZeRO-2 with 1F1B: the buffer is reduce-scattered and released after
//     the last *consecutive* micro-batch of each round (Fig 4c) — more
//     collectives, less memory.
//
// All-forward-all-backward schedules have a single round, so ZeRO-1 and
// ZeRO-2 coincide (Fig 4b).
func GradMemoryTimeline(tl *pp.Timeline, rank int, mode fsdp.Mode, bytesPerStage []float64) ([]GradEvent, float64) {
	s := tl.Schedule
	live := make([]bool, s.V)
	var cur, peak float64
	var events []GradEvent
	for _, iv := range tl.Intervals {
		if iv.Rank != rank || iv.Op.Kind != pp.Bwd {
			continue
		}
		st := iv.Op.Stage
		if !live[st] {
			live[st] = true
			cur += bytesPerStage[st]
		}
		if cur > peak {
			peak = cur
		}
		if mode != fsdp.ZeRO1 && (iv.Op.MB%s.NC == s.NC-1 || iv.Op.MB == s.NMB-1) {
			live[st] = false
			cur -= bytesPerStage[st]
		}
		events = append(events, GradEvent{T: iv.End, Bytes: cur})
	}
	// End of step: ZeRO-1 reduce-scatters everything.
	events = append(events, GradEvent{T: tl.Makespan, Bytes: 0})
	return events, peak
}
