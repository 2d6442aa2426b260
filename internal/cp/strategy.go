package cp

import (
	"fmt"

	"llama4d/internal/sim/cost"
)

// Strategy selects how the CP group exchanges K/V for attention (§7.2,
// Fig 13). The zero value is the all-gather of §4, so existing configs are
// unchanged.
type Strategy int

const (
	// StrategyAllGather exchanges K/V with one blocking all-gather before
	// attention — fully exposed communication, one fused kernel (§4).
	StrategyAllGather Strategy = iota
	// StrategyRing circulates K/V blocks rank-to-rank with pre-posted
	// nonblocking handles, hiding each transfer behind the previous block's
	// attention compute (§7.2's ring attention, minus its LSE merges: the
	// streamed blocked kernel writes scores straight into the full plane).
	StrategyRing
	// StrategyAdaptive picks all-gather or ring per document from the shared
	// sim/cost model — all-gather for short documents, ring for long ones.
	StrategyAdaptive
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyAllGather:
		return "allgather"
	case StrategyRing:
		return "ring"
	case StrategyAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// DocBounds returns the ascending document start offsets of a sample from
// its per-position document ids (nil or empty ids mean one document). The
// first entry is always 0.
func DocBounds(docIDs []int, seq int) []int {
	starts := []int{0}
	for i := 1; i < len(docIDs) && i < seq; i++ {
		if docIDs[i] != docIDs[i-1] {
			starts = append(starts, i)
		}
	}
	return starts
}

// Plan is one sample's per-document exchange decision: document d covers
// global positions [DocStarts[d], DocStarts[d+1]) (the last runs to Seq) and
// moves via ring circulation when Ring[d], via the grouped all-gather
// otherwise. Every CP rank derives the identical Plan from the sample, so
// the exchange schedule needs no coordination.
type Plan struct {
	Seq       int
	DocStarts []int
	Ring      []bool
}

// DocEnd returns the end position (exclusive) of document d.
func (p Plan) DocEnd(d int) int {
	if d+1 < len(p.DocStarts) {
		return p.DocStarts[d+1]
	}
	return p.Seq
}

// HasRing reports whether any document moves via the ring.
func (p Plan) HasRing() bool {
	for _, r := range p.Ring {
		if r {
			return true
		}
	}
	return false
}

// HasAllGather reports whether any document moves via the all-gather.
func (p Plan) HasAllGather() bool {
	for _, r := range p.Ring {
		if !r {
			return true
		}
	}
	return false
}

// Split partitions ascending global positions into the ring-routed and
// all-gather-routed subsequences, returning for each the local row indices
// into pos. Order is preserved (both outputs are ascending in pos index).
func (p Plan) Split(pos []int) (ringIdx, agIdx []int) {
	d := 0
	for i, q := range pos {
		for d+1 < len(p.DocStarts) && q >= p.DocStarts[d+1] {
			d++
		}
		// pos is ascending but may restart below a previous doc (zigzag's
		// mirrored chunk never does — positions are globally ascending — but
		// guard by rewinding).
		for d > 0 && q < p.DocStarts[d] {
			d--
		}
		if p.Ring[d] {
			ringIdx = append(ringIdx, i)
		} else {
			agIdx = append(agIdx, i)
		}
	}
	return ringIdx, agIdx
}

// ChoosePlan prices each document under both strategies with the shared
// sim/cost model and picks the cheaper side — the per-document rule the
// paper's Fig 13 crossover implies: all-gather wins short documents (the
// ring's per-block kernel-launch tax dominates), ring wins long ones (the
// transfer hides behind quadratic compute). ranks is the CP group's global
// rank list (it selects the link tier); qHeads/kvHeads are per-rank local
// head counts.
func ChoosePlan(m cost.Model, ranks []int, seq int, docStarts []int, qHeads, kvHeads, hd int) Plan {
	p := Plan{Seq: seq, DocStarts: docStarts, Ring: make([]bool, len(docStarts))}
	for d := range docStarts {
		dlen := p.DocEnd(d) - docStarts[d]
		p.Ring[d] = m.CPRingWins(ranks, dlen, qHeads, kvHeads, hd)
	}
	return p
}

// PlanFor resolves a Strategy into a concrete per-document Plan for one
// sample. Pure strategies ignore the cost model; the adaptive strategy
// prices each document. When useDocMask is false the whole sequence is one
// causal document regardless of docIDs — matching how the trainer builds
// masks.
func PlanFor(strat Strategy, m cost.Model, ranks []int, seq int, docIDs []int, useDocMask bool, qHeads, kvHeads, hd int) Plan {
	starts := []int{0}
	if useDocMask {
		starts = DocBounds(docIDs, seq)
	}
	switch strat {
	case StrategyAdaptive:
		return ChoosePlan(m, ranks, seq, starts, qHeads, kvHeads, hd)
	case StrategyRing:
		p := Plan{Seq: seq, DocStarts: starts, Ring: make([]bool, len(starts))}
		for d := range p.Ring {
			p.Ring[d] = true
		}
		return p
	default:
		return Plan{Seq: seq, DocStarts: starts, Ring: make([]bool, len(starts))}
	}
}
