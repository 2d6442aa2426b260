// Package pp implements the paper's pipeline parallelism (§3): schedules are
// pure data — per-rank lists of forward/backward operations over virtual
// stages and micro-batches — produced by generators for the interleaved 1F1B
// schedule, the all-forward-all-backward schedule, and the paper's flexible
// schedule that removes the batch-size constraint (§3.1.1). The same
// schedule objects feed a dependency validator, analytic models (bubble
// ratio, in-flight activation memory), the functional executor over real
// tensors, and the discrete-event performance simulator.
//
// Stage placement is interleaved (Fig 2): global stage g lives on rank
// g % pp as that rank's virtual stage g / pp.
package pp

import "fmt"

// OpKind distinguishes forward from backward micro-batch executions.
type OpKind int

// Operation kinds.
const (
	Fwd OpKind = iota
	Bwd
)

func (k OpKind) String() string {
	if k == Fwd {
		return "F"
	}
	return "B"
}

// Op is one unit of pipeline work: run the forward or backward of one
// micro-batch through one local virtual stage.
type Op struct {
	Kind  OpKind
	Stage int // virtual stage index local to the rank (0..v-1)
	MB    int // micro-batch index (0..nmb-1)
}

// Schedule is a complete pipeline schedule.
type Schedule struct {
	Name string
	PP   int // pipeline size (ranks)
	V    int // virtual stages per rank
	NMB  int // micro-batches per virtual stage
	NC   int // consecutive micro-batches per virtual stage per round

	Ranks [][]Op // Ranks[r] is rank r's op list in issue order
}

// Stages returns the total number of global pipeline stages.
func (s *Schedule) Stages() int { return s.PP * s.V }

// GlobalStage maps (rank, local virtual stage) to the global stage index
// under interleaved placement.
func (s *Schedule) GlobalStage(rank, vstage int) int { return vstage*s.PP + rank }

// StageOwner maps a global stage index to (rank, local virtual stage).
func (s *Schedule) StageOwner(g int) (rank, vstage int) { return g % s.PP, g / s.PP }

// TMB returns the total micro-batch executions per rank (per direction).
func (s *Schedule) TMB() int { return s.NMB * s.V }

// Warmup returns the number of warm-up forward micro-batches on rank ppr —
// the generalised formula of §3.1.1. With nc == pp it reduces to the
// Megatron interleaved-1F1B warm-up; with nc > pp it inserts nc−pp extra
// micro-batches per virtual stage into the warm-up (hiding exposed P2P,
// Fig 3, at the cost of (nc−pp)·(v−1) more in-flight micro-batches); with
// nc < pp the schedule degenerates to all-forward-all-backward (Fig 4b).
func Warmup(pp, v, nmb, nc, ppr int) int {
	tmb := nmb * v
	if nc < pp {
		return tmb // all-forward-all-backward
	}
	var w int
	if v == 1 {
		w = pp - ppr - 1
	} else {
		w = (v-1)*nc + 2*(pp-ppr-1)
	}
	if w > tmb {
		w = tmb
	}
	return w
}

// fwdOrder returns the forward issue order for one rank: rounds of up to nc
// consecutive micro-batches per virtual stage, stages in ascending order
// (Fig 2's enumeration). Handles ragged final rounds (nmb % nc != 0), which
// is what frees the schedule from the "batch size multiple of pp" constraint.
func fwdOrder(v, nmb, nc int) []Op {
	ops := make([]Op, 0, v*nmb)
	for base := 0; base < nmb; base += nc {
		cnt := nc
		if base+cnt > nmb {
			cnt = nmb - base
		}
		for st := 0; st < v; st++ {
			for i := 0; i < cnt; i++ {
				ops = append(ops, Op{Kind: Fwd, Stage: st, MB: base + i})
			}
		}
	}
	return ops
}

// bwdOrder returns the backward issue order: same rounds, but virtual stages
// in descending order (backward flows from the last stage).
func bwdOrder(v, nmb, nc int) []Op {
	ops := make([]Op, 0, v*nmb)
	for base := 0; base < nmb; base += nc {
		cnt := nc
		if base+cnt > nmb {
			cnt = nmb - base
		}
		for st := v - 1; st >= 0; st-- {
			for i := 0; i < cnt; i++ {
				ops = append(ops, Op{Kind: Bwd, Stage: st, MB: base + i})
			}
		}
	}
	return ops
}

// rankOps assembles a rank's 1F1B op list: W warm-up forwards, a steady
// phase interleaving one forward with one backward, and a cool-down of the
// remaining backwards. When nmb is not a multiple of nc (a ragged final
// round — the case the original interleaved 1F1B cannot express), the full
// rounds run through the 1F1B zipper and the remainder micro-batches run as
// a trailing all-forward-all-backward phase; naively zipping the ragged
// round can deadlock across ranks.
func rankOps(pp, v, nmb, nc, ppr int) []Op {
	tmb := nmb * v
	if nc < pp {
		// Degenerate all-forward-all-backward (§3.1.1): warm-up covers
		// everything, backwards follow in round order.
		ops := make([]Op, 0, 2*tmb)
		ops = append(ops, fwdOrder(v, nmb, nc)...)
		ops = append(ops, bwdOrder(v, nmb, nc)...)
		return ops
	}

	full := nmb / nc * nc
	ops := make([]Op, 0, 2*tmb)
	if full > 0 {
		fs := fwdOrder(v, full, nc)
		bs := bwdOrder(v, full, nc)
		tmbMain := full * v
		w := Warmup(pp, v, full, nc, ppr)
		ops = append(ops, fs[:w]...)
		for i := 0; i < tmbMain-w; i++ {
			// Steady state: one forward then one backward (1F1B).
			ops = append(ops, fs[w+i], bs[i])
		}
		ops = append(ops, bs[tmbMain-w:]...)
	}
	if rem := nmb - full; rem > 0 {
		for st := 0; st < v; st++ {
			for mb := full; mb < nmb; mb++ {
				ops = append(ops, Op{Kind: Fwd, Stage: st, MB: mb})
			}
		}
		for wave := 0; wave < rem+v-1; wave++ {
			for st := v - 1; st >= 0; st-- {
				mb := full + wave - (v - 1 - st)
				if mb >= full && mb < nmb {
					ops = append(ops, Op{Kind: Bwd, Stage: st, MB: mb})
				}
			}
		}
	}
	return ops
}

// NewFlexible builds the paper's flexible schedule (§3.1.1) with arbitrary
// nc ∈ [1, nmb] and arbitrary nmb.
func NewFlexible(pp, v, nmb, nc int) *Schedule {
	if pp <= 0 || v <= 0 || nmb <= 0 {
		panic(fmt.Sprintf("pp: invalid schedule dims pp=%d v=%d nmb=%d", pp, v, nmb))
	}
	if nc < 1 {
		nc = 1
	}
	if nc > nmb {
		nc = nmb
	}
	s := &Schedule{Name: fmt.Sprintf("flexible(nc=%d)", nc), PP: pp, V: v, NMB: nmb, NC: nc}
	for r := 0; r < pp; r++ {
		s.Ranks = append(s.Ranks, rankOps(pp, v, nmb, nc, r))
	}
	return s
}

// NewAllFwdAllBwd builds the all-forward-all-backward (GPipe-style [11])
// schedule: every forward before any backward. Backwards run in dependency
// wave order — micro-batch mb of local stage st executes in wave
// mb + (v−1−st) — which keeps the pipeline full while every stage's
// gradient buffer stays live until its final micro-batch near the end of
// the step. That shared lifetime is why ZeRO-1 and ZeRO-2 behave
// identically under this schedule (Fig 4b).
func NewAllFwdAllBwd(pp, v, nmb int) *Schedule {
	if pp <= 0 || v <= 0 || nmb <= 0 {
		panic(fmt.Sprintf("pp: invalid schedule dims pp=%d v=%d nmb=%d", pp, v, nmb))
	}
	s := &Schedule{Name: "allFallB", PP: pp, V: v, NMB: nmb, NC: nmb}
	for r := 0; r < pp; r++ {
		ops := append([]Op(nil), fwdOrder(v, nmb, nmb)...)
		for wave := 0; wave < nmb+v-1; wave++ {
			for st := v - 1; st >= 0; st-- {
				mb := wave - (v - 1 - st)
				if mb >= 0 && mb < nmb {
					ops = append(ops, Op{Kind: Bwd, Stage: st, MB: mb})
				}
			}
		}
		s.Ranks = append(s.Ranks, ops)
	}
	return s
}

// Validate checks structural invariants: every (stage, mb) appears exactly
// once per direction on its owning rank, and each backward follows its
// forward in the rank's local order.
func (s *Schedule) Validate() error {
	for r, ops := range s.Ranks {
		type key struct {
			k  OpKind
			st int
			mb int
		}
		seen := make(map[key]int)
		for i, op := range ops {
			if op.Stage < 0 || op.Stage >= s.V || op.MB < 0 || op.MB >= s.NMB {
				return fmt.Errorf("pp: rank %d op %d out of range: %+v", r, i, op)
			}
			k := key{op.Kind, op.Stage, op.MB}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("pp: rank %d duplicates op %+v", r, op)
			}
			seen[k] = i
		}
		if len(seen) != 2*s.TMB() {
			return fmt.Errorf("pp: rank %d has %d ops, want %d", r, len(seen), 2*s.TMB())
		}
		for st := 0; st < s.V; st++ {
			for mb := 0; mb < s.NMB; mb++ {
				if seen[key{Bwd, st, mb}] < seen[key{Fwd, st, mb}] {
					return fmt.Errorf("pp: rank %d runs B(%d,%d) before F(%d,%d)", r, st, mb, st, mb)
				}
			}
		}
	}
	return nil
}
