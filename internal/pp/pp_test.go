package pp

import (
	"math"
	"strings"
	"testing"
)

func TestWarmupMatchesPaperExample(t *testing.T) {
	// Fig 2: pp=3, v=2, nc=3 → warm-up 7, 5, 3 for ranks 0, 1, 2.
	want := []int{7, 5, 3}
	for r, w := range want {
		if got := Warmup(3, 2, 6, 3, r); got != w {
			t.Fatalf("rank %d warmup = %d, want %d", r, got, w)
		}
	}
}

func TestWarmupClampsToTMB(t *testing.T) {
	if got := Warmup(8, 4, 1, 8, 0); got > 4 {
		t.Fatalf("warmup %d exceeds tmb=4", got)
	}
}

func TestWarmupDegeneratesWhenNCSmall(t *testing.T) {
	// nc < pp ⇒ all-forward-all-backward (§3.1.1).
	if got := Warmup(4, 2, 8, 2, 1); got != 16 {
		t.Fatalf("nc<pp warmup = %d, want tmb=16", got)
	}
}

func TestSchedulesValidate(t *testing.T) {
	scheds := []*Schedule{
		NewFlexible(4, 2, 8, 4),
		NewAllFwdAllBwd(4, 2, 8),
		NewFlexible(4, 2, 8, 6),
		NewFlexible(4, 2, 5, 3), // nmb not a multiple of pp: the paper's flexibility claim
		NewFlexible(2, 1, 3, 2),
		NewFlexible(1, 1, 4, 4),
		NewFlexible(3, 2, 7, 5),
	}
	for _, s := range scheds {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s pp=%d v=%d nmb=%d nc=%d: %v", s.Name, s.PP, s.V, s.NMB, s.NC, err)
		}
	}
}

func TestSimulateAllSchedulesComplete(t *testing.T) {
	costs := UniformCosts(1, 0.2)
	for _, s := range []*Schedule{
		NewFlexible(4, 2, 8, 4),
		NewAllFwdAllBwd(4, 2, 8),
		NewFlexible(4, 2, 8, 6),
		NewFlexible(4, 2, 5, 3),
		NewFlexible(3, 3, 7, 4),
	} {
		tl, err := s.Simulate(costs)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(tl.Intervals) != s.PP*2*s.TMB() {
			t.Fatalf("%s executed %d intervals", s.Name, len(tl.Intervals))
		}
	}
}

func TestSimulateDetectsDeadlock(t *testing.T) {
	s := &Schedule{Name: "bad", PP: 1, V: 1, NMB: 1, NC: 1,
		Ranks: [][]Op{{{Kind: Bwd, Stage: 0, MB: 0}, {Kind: Fwd, Stage: 0, MB: 0}}}}
	if _, err := s.Simulate(UniformCosts(1, 0)); err == nil {
		t.Fatal("backward-before-forward must deadlock")
	}
	// An op outside the schedule's dims has no slot in the dense finish
	// table: an error, not an index panic.
	s.Ranks[0][1].MB = 1
	if _, err := s.Simulate(UniformCosts(1, 0)); err == nil {
		t.Fatal("micro-batch 1 of a one-micro-batch schedule must be rejected")
	}
}

func TestBubbleRatioMatchesClassicFormula(t *testing.T) {
	// (pp−1)/(nmb·v) with zero P2P cost (§3.1.1).
	for _, tc := range []struct{ pp, v, nmb int }{{4, 1, 8}, {4, 2, 8}, {8, 1, 16}, {2, 2, 4}} {
		s := NewFlexible(tc.pp, tc.v, tc.nmb, tc.pp)
		tl, err := s.Simulate(UniformCosts(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tc.pp-1) / float64(tc.nmb*tc.v)
		got := tl.BubbleRatio()
		if got < want*0.6 || got > want*1.7 {
			t.Fatalf("pp=%d v=%d nmb=%d: bubble %v, formula %v", tc.pp, tc.v, tc.nmb, got, want)
		}
	}
}

func TestBubbleShrinksWithMoreMicrobatches(t *testing.T) {
	bubble := func(nmb int) float64 {
		tl, err := NewFlexible(4, 2, nmb, 4).Simulate(UniformCosts(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		return tl.BubbleRatio()
	}
	if !(bubble(16) < bubble(8) && bubble(8) < bubble(4)) {
		t.Fatalf("bubble must shrink with nmb: %v %v %v", bubble(4), bubble(8), bubble(16))
	}
}

func TestBubbleRatioBsVsPP(t *testing.T) {
	// §7.3.1: bs = 2·pp gives a materially smaller bubble than bs = pp.
	pp, v := 4, 2
	tlA, _ := NewFlexible(pp, v, 2*pp, pp).Simulate(UniformCosts(1, 0.05))
	tlB, _ := NewFlexible(pp, v, pp, pp).Simulate(UniformCosts(1, 0.05))
	if !(tlA.BubbleRatio() < tlB.BubbleRatio()*0.7) {
		t.Fatalf("bs=2pp bubble %v not much smaller than bs=pp bubble %v",
			tlA.BubbleRatio(), tlB.BubbleRatio())
	}
}

func TestExtraWarmupHidesP2P(t *testing.T) {
	// Fig 3: with exposed P2P latency, nc > pp (extra warm-up micro-batches)
	// reduces the makespan relative to nc = pp.
	pp, v, nmb := 4, 2, 12
	costs := UniformCosts(1, 0.6)
	base, err := NewFlexible(pp, v, nmb, pp).Simulate(costs)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := NewFlexible(pp, v, nmb, pp+2).Simulate(costs)
	if err != nil {
		t.Fatal(err)
	}
	if extra.Makespan >= base.Makespan {
		t.Fatalf("nc>pp makespan %v not better than nc=pp %v", extra.Makespan, base.Makespan)
	}
}

func TestPeakInFlightOrdering(t *testing.T) {
	// Memory: 1F1B < flexible(nc>pp) < all-forward-all-backward (Fig 9b).
	pp, v, nmb := 4, 2, 12
	p1 := NewFlexible(pp, v, nmb, pp).MaxPeakInFlight()
	pf := NewFlexible(pp, v, nmb, pp+2).MaxPeakInFlight()
	pa := NewAllFwdAllBwd(pp, v, nmb).MaxPeakInFlight()
	if !(p1 < pf && pf < pa) {
		t.Fatalf("peak in-flight ordering violated: 1f1b=%d flexible=%d allFallB=%d", p1, pf, pa)
	}
	if pa != nmb*v {
		t.Fatalf("all-F-all-B peak = %d, want tmb=%d", pa, nmb*v)
	}
}

func TestPeakInFlightGrowsByFormula(t *testing.T) {
	// §3.1.1: nc > pp costs (nc−pp)·(v−1) extra in-flight micro-batches.
	pp, v, nmb := 4, 3, 12
	base := NewFlexible(pp, v, nmb, pp).PeakInFlight()[0]
	for _, nc := range []int{5, 6} {
		got := NewFlexible(pp, v, nmb, nc).PeakInFlight()[0]
		want := base + (nc-pp)*(v-1)
		if got != want {
			t.Fatalf("nc=%d: rank-0 peak %d, want %d", nc, got, want)
		}
	}
}

func TestThroughputComplementsBubble(t *testing.T) {
	// Utilisation, busy/(makespan·ranks), is 1/(1+bubble).
	tl, _ := NewFlexible(4, 2, 8, 4).Simulate(UniformCosts(1, 0))
	var busy float64
	for _, b := range tl.Busy {
		busy += b
	}
	util := busy / (tl.Makespan * float64(len(tl.Busy)))
	if math.Abs(util-1/(1+tl.BubbleRatio())) > 1e-9 {
		t.Fatalf("throughput %v inconsistent with bubble %v", util, tl.BubbleRatio())
	}
}

func TestStageLayerCounts(t *testing.T) {
	c := StageLayerCounts(8, 4, false)
	for _, n := range c {
		if n != 2 {
			t.Fatalf("uniform counts = %v", c)
		}
	}
	b := StageLayerCounts(8, 4, true)
	if b[0] != 1 || b[3] != 1 {
		t.Fatalf("balanced counts = %v", b)
	}
	sum := 0
	for _, n := range b {
		sum += n
	}
	if sum != 8 {
		t.Fatalf("balanced counts sum = %d", sum)
	}
	// The paper's production shape: 126 layers, 16 ranks, v=1 per-rank view.
	p := StageLayerCounts(126, 16, true)
	total := 0
	for _, n := range p {
		total += n
	}
	if total != 126 || p[0] >= p[1] || p[15] >= p[14] {
		t.Fatalf("405B layer counts = %v", p)
	}
}

func BenchmarkSimulate1F1B(b *testing.B) {
	s := NewFlexible(16, 2, 32, 16)
	costs := UniformCosts(1, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(costs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRenderScheduleGrid(t *testing.T) {
	s := NewFlexible(3, 2, 6, 3)
	out, err := s.Render()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 rank rows, got %d:\n%s", len(lines), out)
	}
	// Fig 2's warm-up on rank 0: seven forwards (0 1 2 0 1 2 3) lead the row.
	if !strings.Contains(lines[0], "0F 1F 2F 0F 1F 2F 3F") {
		t.Fatalf("rank 0 warm-up not as in Fig 2:\n%s", out)
	}
	if !strings.Contains(out, "B") || !strings.Contains(out, ".") {
		t.Fatalf("render must show backwards and idle slots:\n%s", out)
	}
}

func TestExposedP2PTime(t *testing.T) {
	// Stall time (makespan − busy, summed over ranks) is the "bubble due to
	// P2P" of Fig 3: positive with a P2P cost, and larger than the fill/drain
	// idle a zero-cost pipeline still has.
	stall := func(p2p float64) float64 {
		tl, err := NewFlexible(4, 1, 8, 4).Simulate(UniformCosts(1, p2p))
		if err != nil {
			t.Fatal(err)
		}
		var idle float64
		for _, b := range tl.Busy {
			idle += tl.Makespan - b
		}
		return idle
	}
	if stall(0.5) <= 0 {
		t.Fatal("stall time must be positive with nonzero P2P cost")
	}
	if stall(0) >= stall(0.5) {
		t.Fatal("P2P cost must increase stall time")
	}
}

func TestOpKindString(t *testing.T) {
	if Fwd.String() != "F" || Bwd.String() != "B" {
		t.Fatal("op kind strings wrong")
	}
}

func TestValidateCatchesCorruptSchedules(t *testing.T) {
	// Out-of-range micro-batch.
	bad := &Schedule{Name: "x", PP: 2, V: 1, NMB: 2, NC: 2,
		Ranks: [][]Op{{{Kind: Fwd, Stage: 0, MB: 5}}, {}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range op must fail validation")
	}
	// Duplicate op.
	dup := &Schedule{Name: "x", PP: 1, V: 1, NMB: 1, NC: 1,
		Ranks: [][]Op{{{Kind: Fwd, Stage: 0, MB: 0}, {Kind: Fwd, Stage: 0, MB: 0}}}}
	if dup.Validate() == nil {
		t.Fatal("duplicate op must fail validation")
	}
	// Missing ops.
	missing := &Schedule{Name: "x", PP: 1, V: 1, NMB: 2, NC: 1,
		Ranks: [][]Op{{{Kind: Fwd, Stage: 0, MB: 0}, {Kind: Bwd, Stage: 0, MB: 0}}}}
	if missing.Validate() == nil {
		t.Fatal("missing ops must fail validation")
	}
}
