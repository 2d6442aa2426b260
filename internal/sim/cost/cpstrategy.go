package cost

// CP exchange pricing (§7.2, Fig 13). The paper's all-gather and
// TransformerEngine's ring, its comparator, differ only in how the
// full-sequence K/V reaches each rank:
//
//   - all-gather: one blocking collective before attention — fully exposed
//     α-β time, but a single fused attention kernel afterwards;
//   - ring P2P: n-1 pre-posted block transfers, each hidden behind the
//     previous block's attention compute — exposed time is only the part of
//     a step's transfer the compute window cannot cover, but every block
//     costs extra per-head kernel launches (the paper's §8.1 CPU-overhead
//     term: many small kernels instead of one big one).
//
// Short documents therefore favour all-gather (the collective is cheap, the
// launch tax is not) and long documents favour ring (compute grows
// quadratically and swallows the linear transfer) — the Fig 13 crossover.
// Both prices are per document and additive. The planner's CP annotation
// and the Figs 11-13 sweeps (sim/engine) call these two functions and
// nothing else. Only the all-gather runs in the functional layer: at its
// head shapes the ring first prices below it at 16,384 tokens (cost_test.go
// pins the crossovers), far above the lengths it trains.

// CPKVBytes returns the size of one document's K and V rows as the CP
// exchange moves them: fp32, kvHeads·hd columns, dlen rows each.
func CPKVBytes(dlen, kvHeads, hd int) float64 {
	return 2 * 4 * float64(dlen) * float64(kvHeads*hd)
}

// CPAllGatherTime returns the modeled exposed exchange time one causal
// document of dlen tokens contributes under the all-gather exchange: the
// ring all-gather of its K and V rows (CPKVBytes) across the CP group.
func (m Model) CPAllGatherTime(ranks []int, dlen, kvHeads, hd int) float64 {
	if len(ranks) <= 1 || dlen == 0 {
		return 0
	}
	return m.AllGather(ranks, CPKVBytes(dlen, kvHeads, hd))
}

// CPRingTime returns the modeled cost one causal document of dlen tokens
// contributes under the overlap-hidden ring exchange: per ring step, the
// part of the next block's K/V transfer the current block's attention
// compute cannot hide, plus the per-head streamed-score launch overhead of
// splitting one fused kernel into n blocks.
func (m Model) CPRingTime(ranks []int, dlen, qHeads, kvHeads, hd int) float64 {
	n := len(ranks)
	if n <= 1 || dlen == 0 {
		return 0
	}
	bw, lat := m.Cluster.GroupLink(ranks)
	steps := float64(n - 1)
	blk := float64(dlen) / float64(n)
	stepBytes := 2 * 4 * blk * float64(kvHeads*hd)
	stepComm := lat*usToS + stepBytes/(bw*gb)
	pairs := float64(dlen) * (float64(dlen) + 1) / 2 // causal within the document
	stepPairs := pairs / float64(n*n)
	stepCompute := m.Attention(int64(blk), int64(blk), int64(stepPairs), int64(qHeads), int64(hd))
	exposed := stepComm - stepCompute
	if exposed < 0 {
		exposed = 0
	}
	launch := float64(qHeads) * m.KernelLaunchUs * usToS
	return steps * (exposed + launch)
}

// CPRingWins reports whether the ring prices strictly below all-gather for
// one document — the Fig 13 winner and the planner's CPRing annotation.
func (m Model) CPRingWins(ranks []int, dlen, qHeads, kvHeads, hd int) bool {
	return m.CPRingTime(ranks, dlen, qHeads, kvHeads, hd) <
		m.CPAllGatherTime(ranks, dlen, kvHeads, hd)
}
