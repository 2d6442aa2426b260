package planner

import "testing"

// TestPlanCPRingAnnotation pins the planner's CP-exchange annotation to the
// Fig 13 model: for every CP>1 plan, Plan.CPRing must equal
// cost.CPRingWins for the same group, sequence and cost model, one
// full-sequence causal document. The two per-document prices must be
// positive and ordered consistently with the decision.
func TestPlanCPRingAnnotation(t *testing.T) {
	req := Production405B(131072) // cp = 16 territory
	req.HBMBudgetGiB = 1 << 20    // the annotation, not feasibility, is under test
	for _, tc := range []struct{ tp, cpSize, pp int }{
		{8, 16, 16},
		{8, 4, 16},
		{8, 2, 16},
	} {
		p, err := req.Feasible(tc.tp, tc.cpSize, tc.pp)
		if err != nil {
			t.Fatalf("Feasible(%d,%d,%d): %v", tc.tp, tc.cpSize, tc.pp, err)
		}
		if p.CPRingSec <= 0 || p.CPAllGatherSec <= 0 {
			t.Fatalf("cp=%d: non-positive strategy prices ring=%g ag=%g",
				tc.cpSize, p.CPRingSec, p.CPAllGatherSec)
		}
		if p.CPRing != (p.CPRingSec < p.CPAllGatherSec) {
			t.Fatalf("cp=%d: CPRing=%v inconsistent with prices ring=%g ag=%g",
				tc.cpSize, p.CPRing, p.CPRingSec, p.CPAllGatherSec)
		}
		g := make([]int, tc.cpSize)
		for i := range g {
			g[i] = i * tc.tp
		}
		qh := req.Model.NHeads / tc.tp
		kvh := req.Model.NKVHeads / tc.tp
		if wins := req.Cost.CPRingWins(g, req.Seq, qh, kvh, req.Model.HeadDim()); p.CPRing != wins {
			t.Fatalf("cp=%d: planner annotation %v disagrees with cost.CPRingWins %v",
				tc.cpSize, p.CPRing, wins)
		}
	}

	// CP=1 plans must stay unannotated.
	p, err := Production405B(8192).Feasible(8, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPRing || p.CPRingSec != 0 || p.CPAllGatherSec != 0 {
		t.Fatalf("cp=1 plan carries CP annotation: %+v", p)
	}
}
