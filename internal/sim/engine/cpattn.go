// Package engine runs the performance experiments of the paper's evaluation
// on the cost model: the CP attention scalability studies (Figs 11-13), the
// document-mask workload-imbalance analysis (Fig 14), and full training-step
// simulation for the PP figures and end-to-end TFLOPs (Figs 9-10, §7.3).
package engine

import (
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/sim/cluster"
	"llama4d/internal/sim/cost"
)

// AttnShape is the attention geometry of the kernel benchmarks: the Llama 3
// 405B attention after TP=8 sharding (16 query heads, 1 KV head, head dim
// 128), matching the production kernels the paper measures.
type AttnShape struct {
	Heads   int
	KVHeads int
	HeadDim int
}

// Llama405BTP8 returns the per-GPU attention shape of production training.
func Llama405BTP8() AttnShape { return AttnShape{Heads: 16, KVHeads: 1, HeadDim: 128} }

// CPAttnResult is one point of the Fig 11-13 sweeps.
type CPAttnResult struct {
	Seq     int
	CP      int
	DocMask bool
	Method  string // "allgather" or "ring"

	SingleGPUTime float64 // flash attention on one GPU, same mask
	PerRankTime   float64 // slowest CP rank: compute + exposed comm
	CommTime      float64 // all-gather (or ring P2P) time
	RelativeHFU   float64 // SingleGPUTime / (CP × PerRankTime)
	AGBandwidth   float64 // achieved all-gather bandwidth, GB/s (Fig 12)

	// Tiles is the tile census of the CP group's attention under the blocked
	// training engine's classifier (one grid per rank, summed): the sweep
	// point's modeled counterpart of the measured StepReport.Attn census. The
	// ring comparator leaves it zero — its fragmented per-step kernels are
	// modeled by pair counts, not grids.
	Tiles attention.Stats
}

// docStartsFor samples a packed sequence's document starts with the given
// mean document length (deterministic in seed), or a single document when
// docMask is false.
func docStartsFor(seq int, docMask bool, avgDocLen int, seed int64) []int {
	ids := make([]int, seq)
	if docMask {
		gen := &data.Generator{Vocab: 2, Seq: seq, AvgDocLen: avgDocLen, Seed: seed}
		lengths := gen.DocLengths(rand.New(rand.NewSource(seed)))
		ids = attention.DocIDsFromLengths(lengths, seq)
	}
	return attention.DocStarts(ids)
}

// rankGrids classifies each CP rank's local attention into tile grids with
// the same BuildGridFromStarts classifier the blocked training kernels
// dispatch through, under the 2×cp load-balanced sharding. The grids carry
// both the exact allowed-pair counts the time model needs (identical to
// FastAllowedPairs — asserted in tests) and the full/partial/empty census
// the sweep reports.
func rankGrids(seq, cpSize int, docStarts []int) []*attention.Grid {
	sh := cp.NewSharding(seq, cpSize)
	out := make([]*attention.Grid, cpSize)
	for r := 0; r < cpSize; r++ {
		out[r] = attention.BuildGridFromStarts(sh.LocalPositions(r), docStarts, 0, seq)
	}
	return out
}

// perRankPairs returns each CP rank's allowed (q, k) pair count.
func perRankPairs(grids []*attention.Grid) []int64 {
	out := make([]int64, len(grids))
	for r, g := range grids {
		out[r] = g.AllowedPairs
	}
	return out
}

func maxI64(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// kvBytes returns the size of the K and V tensors of the full sequence.
func kvBytes(seq int, s AttnShape) float64 {
	return 2 /*K,V*/ * 2 /*bf16*/ * float64(seq) * float64(s.KVHeads) * float64(s.HeadDim)
}

// AllGatherCPAttention evaluates the paper's CP attention (§4) at one sweep
// point. The CP group occupies adjacent ranks (TP innermost is collapsed
// into the shape; CP groups of 2-8 sit inside one node as in §7.2's setup).
func AllGatherCPAttention(m cost.Model, shape AttnShape, seq, cpSize int, docMask bool, avgDocLen int, seed int64) CPAttnResult {
	ds := docStartsFor(seq, docMask, avgDocLen, seed)
	totalPairs := attention.FastAllowedPairs(attention.Iota(seq), ds)
	single := m.Attention(int64(seq), int64(seq), totalPairs, int64(shape.Heads), int64(shape.HeadDim))

	grids := rankGrids(seq, cpSize, ds)
	pairs := perRankPairs(grids)
	slowest := maxI64(pairs)
	var tiles attention.Stats
	for _, g := range grids {
		tiles = tiles.Add(g.Summary())
	}
	qLocal := int64(seq / cpSize)
	compute := m.Attention(qLocal, int64(seq), slowest, int64(shape.Heads), int64(shape.HeadDim))
	ranks := cluster.RanksOfGroup(0, cpSize, 1) // intra-node CP for the kernel study
	ag := m.AllGather(ranks, kvBytes(seq, shape))
	per := compute + ag // all-gather latency is fully exposed, by design (§4)

	return CPAttnResult{
		Seq: seq, CP: cpSize, DocMask: docMask, Method: "allgather",
		SingleGPUTime: single, PerRankTime: per, CommTime: ag,
		RelativeHFU: single / (float64(cpSize) * per),
		AGBandwidth: cost.AchievedBandwidth(kvBytes(seq, shape)*float64(cpSize-1)/float64(cpSize), ag),
		Tiles:       tiles,
	}
}

// RingCPAttention evaluates the TransformerEngine-style ring attention
// comparator of Fig 13: cp iterations, each computing a partial result on a
// seq/cp KV block (two chunks) overlapped with the P2P transfer of the next
// block, plus a log-sum-exp merge per iteration. Full causal mask only, as
// in the paper's forked TE branch.
func RingCPAttention(m cost.Model, shape AttnShape, seq, cpSize int) CPAttnResult {
	ds := docStartsFor(seq, false, 0, 0)
	totalPairs := attention.FastAllowedPairs(attention.Iota(seq), ds)
	single := m.Attention(int64(seq), int64(seq), totalPairs, int64(shape.Heads), int64(shape.HeadDim))

	qLocal := int64(seq / cpSize)
	// Balanced sharding: each rank performs totalPairs/cp work, split across
	// cp fragmented kernels of ~equal size (two chunk-kernels per step in
	// our functional implementation; model as one kernel per step with the
	// same total work — the launch overhead per step is what matters).
	perStepPairs := totalPairs / int64(cpSize) / int64(cpSize)
	blockKV := int64(seq / cpSize)
	var computeTotal, commTotal float64
	p2pBytes := kvBytes(seq/cpSize, shape)
	for step := 0; step < cpSize; step++ {
		kernel := m.Attention(qLocal, blockKV, perStepPairs, int64(shape.Heads), int64(shape.HeadDim))
		// Merge of partial results: memory-bound elementwise rescale of the
		// O accumulator plus softmax statistics.
		merge := m.MergeOverhead(qLocal, int64(shape.Heads), int64(shape.HeadDim))
		stepCompute := kernel + merge
		if step < cpSize-1 {
			p2p := m.P2P(0, 1, p2pBytes)
			// Communication overlaps with compute: the step costs the max.
			if p2p > stepCompute {
				commTotal += p2p - stepCompute
			}
		}
		computeTotal += stepCompute
	}
	per := computeTotal + commTotal
	return CPAttnResult{
		Seq: seq, CP: cpSize, DocMask: false, Method: "ring",
		SingleGPUTime: single, PerRankTime: per, CommTime: commTotal,
		RelativeHFU: single / (float64(cpSize) * per),
	}
}

// SweepSeqs is the sequence-length sweep of Figs 11-13.
var SweepSeqs = []int{4096, 8192, 16384, 32768, 65536, 131072}

// Fig11 produces the relative-HFU sweep of Fig 11: cp ∈ {2,4} × {causal,
// block-causal with 1K average documents} over the sequence sweep, on the
// HBM2e H100 of §7.2.
func Fig11(m cost.Model) []CPAttnResult {
	m = m.WithGPU(cluster.H100HBM2e())
	shape := Llama405BTP8()
	var out []CPAttnResult
	for _, cpSize := range []int{2, 4} {
		for _, doc := range []bool{false, true} {
			for _, seq := range SweepSeqs {
				out = append(out, AllGatherCPAttention(m, shape, seq, cpSize, doc, 1024, 7))
			}
		}
	}
	return out
}

// Fig12 produces the achieved all-gather bandwidth sweep of Fig 12.
func Fig12(m cost.Model) []CPAttnResult { return Fig11(m) }

// Fig13 compares all-gather CP attention with ring (TE) attention on the
// HBM3 production hardware, full causal masks, cp ∈ {2,4}.
func Fig13(m cost.Model) []CPAttnResult {
	shape := Llama405BTP8()
	var out []CPAttnResult
	for _, cpSize := range []int{2, 4} {
		for _, seq := range SweepSeqs {
			out = append(out, AllGatherCPAttention(m, shape, seq, cpSize, false, 0, 7))
			out = append(out, RingCPAttention(m, shape, seq, cpSize))
		}
	}
	return out
}
