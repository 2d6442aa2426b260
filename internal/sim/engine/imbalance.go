package engine

import (
	"math"
	"math/rand"
	"sort"

	"llama4d/internal/attention"
	"llama4d/internal/balance"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// ImbalanceReport reproduces the Fig 14 / §7.3.2 analysis: the distribution
// of per-GPU compute time under document masking in long-context training,
// and how much of the exposed CP latency is waiting for the slowest rank.
type ImbalanceReport struct {
	ComputeTimes []float64 // per simulated GPU, total compute over the window, sorted
	AttnTimes    []float64 // attention-kernel component, same order

	SlowFastRatio     float64 // slowest/fastest total compute (paper: 1.44×)
	AttnSlowFastRatio float64 // slowest/fastest attention time
	CPExposedFrac     float64 // CP-exposed latency / total elapsed (paper: 7.64%)
	WaitFracOfExposed float64 // waiting-for-slowest share of CP exposed (paper: 65.75%)
	OverlapUpperBound float64 // best-case e2e gain of a perfect overlap scheme (paper: 2.62%)
}

// DocMaskImbalance simulates nGroups CP groups over `steps` training steps,
// each step drawing a fresh document-packed sequence, and accounts per-rank
// compute (balanced GEMMs + imbalanced attention) and CP communication.
func DocMaskImbalance(m cost.Model, cfg model.Config, tp int, seq, cpSize, avgDocLen, nGroups, steps int, seed int64) ImbalanceReport {
	// Degenerate windows — no groups, no ranks, or no steps — simulate no
	// work: report perfect balance over an empty distribution instead of
	// indexing into empty slices or dividing zero by zero.
	if nGroups <= 0 || cpSize <= 0 || steps <= 0 {
		return ImbalanceReport{SlowFastRatio: 1, AttnSlowFastRatio: 1}
	}
	sh := cp.NewSharding(seq, cpSize)
	qLocal := seq / cpSize
	heads := int64(cfg.NHeads / tp)
	hd := int64(cfg.HeadDim())

	// Balanced per-rank per-layer compute: projections + FFN on local tokens.
	_, base := m.DenseLayer(int64(qLocal), int64(cfg.Dim), int64(cfg.Hidden/tp), heads, int64(cfg.NKVHeads/tp), hd)

	kvB := 2 * 2 * float64(seq) * float64(cfg.NKVHeads/tp) * float64(hd)
	cpRanks := make([]int, cpSize)
	for i := range cpRanks {
		cpRanks[i] = i * 64 // CP spans nodes in production (tp=8 inner ⇒ stride ≥ 8)
	}
	agTime := m.AllGather(cpRanks, kvB)

	// Exposed TP communication per layer (fwd + bwd): part of the elapsed
	// time the CP exposure is measured against.
	tpRanks := make([]int, tp)
	for i := range tpRanks {
		tpRanks[i] = i
	}
	actBytes := 2 * float64(qLocal) * float64(cfg.Dim)
	tpComm := 8 * m.AllGather(tpRanks, actBytes)

	// Production-like document mix: mostly short documents plus a heavy tail
	// of near-full-context ones (§4: the slowest rank often holds a full
	// sequence without an eos_id).
	gen := &data.Generator{Vocab: 2, Seq: seq, AvgDocLen: avgDocLen, Seed: seed, LongDocFrac: 0.08}
	compute := make([]float64, nGroups*cpSize)
	attn := make([]float64, nGroups*cpSize)
	var totalWait, totalExposed, totalElapsed float64
	for g := 0; g < nGroups; g++ {
		for s := 0; s < steps; s++ {
			rng := rand.New(rand.NewSource(seed + int64(g*steps+s)))
			lengths := gen.DocLengths(rng)
			ds := attention.DocStarts(attention.DocIDsFromLengths(lengths, seq))
			times := make([]float64, cpSize)
			slow := 0.0
			for r := 0; r < cpSize; r++ {
				pairs := attention.FastAllowedPairs(sh.LocalPositions(r), ds)
				t := m.Attention(int64(qLocal), int64(seq), pairs, heads, hd)
				times[r] = t
				if t > slow {
					slow = t
				}
			}
			for r := 0; r < cpSize; r++ {
				gpu := g*cpSize + r
				// Forward + backward ≈ 3× forward compute.
				attn[gpu] += 3 * times[r]
				compute[gpu] += 3 * (times[r] + base)
				totalWait += 3 * (slow - times[r]) / float64(cpSize)
			}
			// Per step per layer: exposed CP comm = all-gather (fwd) +
			// reduce-scatter (bwd, same volume) + mean wait. Elapsed time
			// additionally carries the exposed TP collectives and the PP
			// bubble (≈13.5% at bs=pp, §7.3.1).
			totalExposed += 2*agTime + 3*(slow-mean(times))
			totalElapsed += (3*(slow+base) + 2*agTime + tpComm) * 1.135
		}
	}
	sortPair(compute, attn)
	rep := ImbalanceReport{ComputeTimes: compute, AttnTimes: attn}
	rep.SlowFastRatio = slowFastRatio(compute)
	rep.AttnSlowFastRatio = slowFastRatio(attn)
	if totalElapsed > 0 {
		rep.CPExposedFrac = totalExposed / totalElapsed
	}
	wait := totalExposed - 2*agTime*float64(nGroups*steps)
	if totalExposed > 0 {
		rep.WaitFracOfExposed = wait / totalExposed
		// A perfect overlap scheme still waits for the slowest rank: at best
		// it hides the all-gather, bounding the end-to-end gain (§7.3.2).
		rep.OverlapUpperBound = (totalExposed - wait) / totalElapsed
	}
	return rep
}

// slowFastRatio is last/first of a sorted non-empty slice, guarded for the
// all-zero case (a zero-document window performs no attention anywhere —
// that is perfect balance, ratio 1, not 0/0). A zero fastest rank with a
// nonzero slowest one is genuinely unbounded skew and reports +Inf.
func slowFastRatio(sorted []float64) float64 {
	slow, fast := sorted[len(sorted)-1], sorted[0]
	if fast > 0 {
		return slow / fast
	}
	if slow == 0 {
		return 1
	}
	return math.Inf(1)
}

// ShardSkew models the per-rank swept-pair imbalance of one CP row layout
// over one document-masked sequence: the max/mean ratio of each shard's
// blocked-attention tile census (TotalPairs − EmptyPairs) — the same
// quantity the per-rank attention.Recorder measures and balance.PlanShards
// minimises, so measured and modeled skew compare directly.
func ShardSkew(shards [][]int, starts []int, seq int) float64 {
	return balance.MaxMeanRatio(balance.ShardCosts(starts, seq, shards))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortPair sorts a ascending, permuting b identically.
func sortPair(a, b []float64) {
	idx := make([]int, len(a))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return a[idx[i]] < a[idx[j]] })
	a2 := make([]float64, len(a))
	b2 := make([]float64, len(b))
	for i, k := range idx {
		a2[i], b2[i] = a[k], b[k]
	}
	copy(a, a2)
	copy(b, b2)
}
