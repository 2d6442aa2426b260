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
	CommTime      float64 // cost.CPAllGatherTime or cost.CPRingTime
	RelativeHFU   float64 // SingleGPUTime / (CP × PerRankTime)
	AGBandwidth   float64 // achieved all-gather bandwidth, GB/s (Fig 12)

	// Tiles is the tile census of the CP group's attention under the blocked
	// training engine's classifier (one grid per rank, summed): the sweep
	// point's modeled counterpart of the measured StepReport.Attn census.
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

// CPAttention evaluates one Fig 11-13 sweep point over a sequence with the
// given document starts: the single-GPU flash attention time, and the slowest
// CP rank's fused kernel plus the K/V exchange priced per document —
// cost.CPRingTime when ring is set (the
// TransformerEngine-style comparator of Fig 13: per-block kernel launches
// and the transfer its compute cannot hide), cost.CPAllGatherTime otherwise
// (the paper's §4 all-gather, fully exposed by design). The CP group
// occupies adjacent ranks inside one node, as in §7.2's setup (TP is
// collapsed into the shape).
func CPAttention(m cost.Model, shape AttnShape, seq, cpSize int, docStarts []int, ring bool) CPAttnResult {
	heads, hd := int64(shape.Heads), int64(shape.HeadDim)
	totalPairs := attention.FastAllowedPairs(attention.Iota(seq), docStarts)
	r := CPAttnResult{Seq: seq, CP: cpSize, Method: "allgather",
		SingleGPUTime: m.Attention(int64(seq), int64(seq), totalPairs, heads, hd)}
	var slowest int64
	for _, g := range rankGrids(seq, cpSize, docStarts) {
		slowest = max(slowest, g.AllowedPairs)
		r.Tiles = r.Tiles.Add(g.Summary())
	}
	ranks := cluster.RanksOfGroup(0, cpSize, 1)
	if ring {
		r.Method = "ring"
		r.CommTime = m.CPRingTime(ranks, seq, shape.Heads, shape.KVHeads, shape.HeadDim)
	} else {
		r.CommTime = m.CPAllGatherTime(ranks, seq, shape.KVHeads, shape.HeadDim)
		kv := cost.CPKVBytes(seq, shape.KVHeads, shape.HeadDim)
		r.AGBandwidth = cost.AchievedBandwidth(kv*float64(cpSize-1)/float64(cpSize), r.CommTime)
	}
	r.PerRankTime = m.Attention(int64(seq/cpSize), int64(seq), slowest, heads, hd) + r.CommTime
	r.RelativeHFU = r.SingleGPUTime / (float64(cpSize) * r.PerRankTime)
	return r
}

// SweepSeqs is the sequence-length sweep of Figs 11-13.
var SweepSeqs = []int{4096, 8192, 16384, 32768, 65536, 131072}

// Fig11 produces the relative-HFU sweep of Fig 11: cp ∈ {2,4} × {causal,
// block-causal with 1K average documents} over the sequence sweep, on the
// HBM2e H100 of §7.2. Its AGBandwidth column is Fig 12.
func Fig11(m cost.Model) []CPAttnResult {
	m = m.WithGPU(cluster.H100HBM2e())
	shape := Llama405BTP8()
	var out []CPAttnResult
	for _, cpSize := range []int{2, 4} {
		for _, doc := range []bool{false, true} {
			for _, seq := range SweepSeqs {
				p := CPAttention(m, shape, seq, cpSize, docStartsFor(seq, doc, 1024, 7), false)
				p.DocMask = doc
				out = append(out, p)
			}
		}
	}
	return out
}

// Fig13 compares all-gather CP attention with ring (TE) attention on the
// HBM3 production hardware, full causal masks, cp ∈ {2,4}.
func Fig13(m cost.Model) []CPAttnResult {
	shape := Llama405BTP8()
	var out []CPAttnResult
	for _, cpSize := range []int{2, 4} {
		for _, seq := range SweepSeqs {
			causal := docStartsFor(seq, false, 0, 0)
			out = append(out, CPAttention(m, shape, seq, cpSize, causal, false),
				CPAttention(m, shape, seq, cpSize, causal, true))
		}
	}
	return out
}
