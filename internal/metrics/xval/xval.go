// Package xval cross-validates the measured metrics registry
// (internal/metrics) against the repo's analytic models: every collective a
// training step issues has a closed-form byte/message count derivable from
// the configuration alone, every matmul has a nominal FLOP count, and the
// peak live-activation bytes follow memsim's functional model. Predict
// computes those expectations exactly — including the integer-truncation
// behaviour of the comm volumes and the ZeRO-mode collective cadence — so the
// sweep test can assert measured == modeled with zero tolerance on
// communication and FLOPs.
package xval

import (
	"fmt"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/sim/memsim"
)

// Expected holds the analytic per-step predictions for one cluster.
type Expected struct {
	// Comm[rank]["group/op"] is the exact predicted traffic each rank
	// issues during one training step.
	Comm []map[string]metrics.OpVolume
	// Overlapped[rank]["group/op"] is the subset of Comm predicted to be
	// issued nonblocking (handle-based) under the cluster's overlap
	// configuration: pipeline sends/recvs when Overlap.P2P > 0, the
	// per-backward ZeRO-2 gradient reduce-scatters when Overlap.Grads, and
	// the steady-state ZeRO-3 parameter re-gathers when Overlap.Params > 0.
	// Step-end collectives (fsdp.Shard.Step) are always blocking. Empty
	// maps when the overlap engine is disabled.
	Overlapped []map[string]metrics.OpVolume
	// IntraBytes[rank] / InterBytes[rank] split each rank's predicted
	// issued bytes by host tier (see RankPrediction); all-intra when the
	// configuration has no host topology.
	IntraBytes []int64
	InterBytes []int64
	// FLOPs is the predicted world-total nominal matmul FLOP count.
	FLOPs int64
}

// Collective byte formulas, replicating comm's truncating int64 arithmetic
// (ring all-reduce 2(n−1)/n, all-gather (n−1), reduce-scatter (n−1)/n — the
// §5.2 cost-model volumes).
func allReduceBytes(n, size int64) int64     { return n * 4 * 2 * (size - 1) / size }
func allGatherBytes(n, size int64) int64     { return n * 4 * (size - 1) }
func reduceScatterBytes(n, size int64) int64 { return n * 4 * (size - 1) / size }

// Predict computes the exact expected communication volumes and FLOPs of one
// training step of the cluster. steadyState distinguishes steps after the
// first: ZeRO-3 releases parameters at the end of every step, so steps >= 1
// pay a parameter all-gather that step 0 (freshly constructed, replicas
// already materialised) does not.
//
// The per-rank arithmetic lives in predictRank (predict.go); Predict reads
// each rank's view — group memberships, cache-assigned labels, FSDP unit
// shard lengths — out of the live cluster, while PredictConfig derives the
// identical views from the configuration alone.
func Predict(cl *core.Cluster, steadyState bool) *Expected {
	cfg := cl.Cfg
	counts := pp.StageLayerCounts(cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced)
	ex := newExpected(len(cl.Ranks))
	for _, r := range cl.Ranks {
		// The cluster's group cache deduplicates groups by rank set, so a
		// singleton dimension's group may alias an earlier-created one and
		// carry its label (e.g. with DP=CP=1 the FSDP group IS the TP
		// group). Predict against the labels the ranks actually hold.
		gv := func(g *comm.Group) groupView {
			return newGroupView(g.Label, g.Ranks(), r.ID, cfg.HostSize)
		}
		rv := rankView{
			id:        r.ID,
			pp:        r.Coord.PP,
			tp:        gv(r.Groups.TP),
			cp:        gv(r.Groups.CP),
			fsdp:      gv(r.Groups.FSDP),
			world:     gv(r.Groups.World),
			ppRanks:   r.Groups.PP.Ranks(),
			shardLens: r.Shard.ShardLens(),
		}
		ex.fill(r.ID, predictRank(cfg, counts, rv, steadyState))
	}
	return ex
}

// RankAttn is one rank's predicted attention census for a step: the tile
// Stats and the effective/nominal attention-matmul FLOPs — exactly what the
// per-rank attention.Recorder measures (metrics.RankReport.Attn and friends).
type RankAttn struct {
	Stats        attention.Stats
	EffFLOPs     int64
	NominalFLOPs int64
}

// PredictAttentionPerRank computes the exact per-rank attention-sparsity
// profile of one training step under the blocked engine, from the
// configuration and data stream alone: it rebuilds every sample's tile grid
// with the same BuildGrid classifier the kernels dispatch through, counts
// how many kernel calls see that grid (forward, recompute replay, backward —
// per head, per layer), and applies the recorder's FLOP arithmetic
// (2·hd FLOPs per pair per matmul sweep: 2 sweeps per forward-type call,
// 4 per backward). When the cluster plans per-sample CP shards
// (Config.ShardPlanner), the predicted query rows follow the planned layout,
// as the kernels do. Indexed by rank id; the sweep test asserts each entry
// against the measured RankReport with zero tolerance.
func PredictAttentionPerRank(cl *core.Cluster, src data.Batcher, step int64) []RankAttn {
	cfg := cl.Cfg
	counts := pp.StageLayerCounts(cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced)
	nHl := cfg.Model.NHeads / cfg.Topo.TP
	hd := int64(cfg.Model.HeadDim())
	replay := 0
	if cfg.Recompute != model.RecomputeNone {
		// Both full and selective recomputation re-run attention.Forward once
		// per layer during the backward replay.
		replay = 1
	}
	out := make([]RankAttn, len(cl.Ranks))
	for _, r := range cl.Ranks {
		// Layers this rank owns, summed over its virtual stages.
		Lr := 0
		for vs := 0; vs < cl.Sched.V; vs++ {
			Lr += counts[cl.Sched.GlobalStage(r.Coord.PP, vs)]
		}
		var evenQPos []int
		if cfg.Topo.CP > 1 {
			sh := cp.NewSharding(cfg.Seq, cfg.Topo.CP)
			evenQPos = sh.LocalPositions(r.Groups.CP.LocalRank(r.ID))
		} else {
			evenQPos = attention.Iota(cfg.Seq)
		}
		fwdCalls := int64(nHl * Lr * (1 + replay))
		bwdCalls := int64(nHl * Lr)
		perPair := 2 * hd * (2*fwdCalls + 4*bwdCalls)
		for _, s := range src.DPBatch(step, cfg.GBS, cfg.Topo.DP, r.Coord.DP) {
			var mask attention.Mask = attention.Causal{}
			if cfg.UseDocMask {
				mask = attention.Document{DocID: s.DocIDs}
			}
			qPos := evenQPos
			if cfg.ShardPlanner != nil && cfg.Topo.CP > 1 {
				qPos = cfg.ShardPlanner(s, cfg.Topo.CP)[r.Groups.CP.LocalRank(r.ID)]
			}
			g := attention.BuildGrid(mask, qPos, 0, cfg.Seq)
			out[r.ID].Stats = out[r.ID].Stats.Add(g.Summary().Scale(fwdCalls + bwdCalls))
			out[r.ID].NominalFLOPs += perPair * g.TotalPairs()
			out[r.ID].EffFLOPs += perPair * (g.TotalPairs() - g.EmptyPairs)
		}
	}
	return out
}

// PredictAttention is the world-global view of PredictAttentionPerRank:
// the summed attention.Stats delta of the step and the predicted
// effective-FLOP deficit (nominal FLOPs − effective FLOPs). The sweep test
// asserts both against the measured StepReport with zero tolerance.
func PredictAttention(cl *core.Cluster, src data.Batcher, step int64) (attention.Stats, int64) {
	var stats attention.Stats
	var skipped int64
	for _, ra := range PredictAttentionPerRank(cl, src, step) {
		stats = stats.Add(ra.Stats)
		skipped += ra.NominalFLOPs - ra.EffFLOPs
	}
	return stats, skipped
}

// PredictImbalance builds the modeled per-rank imbalance summary from the
// per-rank prediction, with the same arithmetic as the measured side
// (metrics.ComputeImbalance over per-rank effective FLOPs).
func PredictImbalance(perRank []RankAttn) *metrics.ImbalanceSummary {
	effs := make([]int64, len(perRank))
	for i, ra := range perRank {
		effs[i] = ra.EffFLOPs
	}
	return metrics.ComputeImbalance(effs)
}

// MemConfig builds the memory-simulator configuration matching a cluster,
// for FunctionalActivation cross-validation.
func MemConfig(cl *core.Cluster) memsim.Config {
	cfg := cl.Cfg
	return memsim.Config{
		Model: cfg.Model,
		TP:    cfg.Topo.TP, CP: cfg.Topo.CP, DP: cfg.Topo.DP,
		Seq: cfg.Seq, MBS: cfg.MBS(),
		ZeRO:      cfg.ZeRO,
		Recompute: cfg.Recompute,
		Sched:     cl.Sched,
		LayerCounts: pp.StageLayerCounts(
			cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced),
	}
}

// MeasuredSchedule reassembles a pipeline schedule from the per-rank
// executed-op logs of a StepReport: rank (tp=0, cp=0, dp=0, pp=r)'s op list
// becomes pipeline rank r's. The result validates and simulates like any
// generated schedule — the bubble-ratio conformance check replays it through
// the analytic Timeline.
func MeasuredSchedule(cl *core.Cluster, rep *metrics.StepReport) (*pp.Schedule, error) {
	s := &pp.Schedule{
		Name: "measured", PP: cl.Sched.PP, V: cl.Sched.V,
		NMB: cl.Sched.NMB, NC: cl.Sched.NC,
		Ranks: make([][]pp.Op, cl.Sched.PP),
	}
	for _, r := range cl.Ranks {
		c := r.Coord
		if c.TP != 0 || c.CP != 0 || c.DP != 0 {
			continue
		}
		if r.ID >= len(rep.Ranks) {
			return nil, fmt.Errorf("xval: report has %d ranks, need rank %d", len(rep.Ranks), r.ID)
		}
		s.Ranks[c.PP] = append([]pp.Op(nil), rep.Ranks[r.ID].Ops...)
	}
	return s, s.Validate()
}
