package planner

import (
	"strings"
	"testing"

	"llama4d/internal/fsdp"
)

func TestPaperPlanReproducesTable2Short(t *testing.T) {
	p, err := PaperPlan(Production405B(8192))
	if err != nil {
		t.Fatal(err)
	}
	if p.TP != 8 || p.CP != 1 || p.PP != 16 || p.DP != 128 {
		t.Fatalf("8K plan = %v, Table 2 says tp=8 cp=1 pp=16 dp=128", p)
	}
	// Paper: ≈400 TFLOPs/GPU.
	if p.TFLOPsPerGPU < 360 || p.TFLOPsPerGPU > 480 {
		t.Fatalf("8K predicted %v TFLOPs/GPU", p.TFLOPsPerGPU)
	}
}

func TestPaperPlanReproducesTable2Long(t *testing.T) {
	p, err := PaperPlan(Production405B(131072))
	if err != nil {
		t.Fatal(err)
	}
	if p.TP != 8 || p.CP != 16 || p.PP != 16 || p.DP != 8 {
		t.Fatalf("131K plan = %v, Table 2 says tp=8 cp=16 pp=16 dp=8", p)
	}
	// Paper: ≈380 TFLOPs/GPU, below the 8K figure.
	if p.TFLOPsPerGPU < 340 || p.TFLOPsPerGPU > 440 {
		t.Fatalf("131K predicted %v TFLOPs/GPU", p.TFLOPsPerGPU)
	}
	short, _ := PaperPlan(Production405B(8192))
	if p.TFLOPsPerGPU >= short.TFLOPsPerGPU {
		t.Fatalf("131K (%v) must trail 8K (%v)", p.TFLOPsPerGPU, short.TFLOPsPerGPU)
	}
}

func TestPaperPlanKeepsPerRankSeqAt8K(t *testing.T) {
	// §5.1: cp is chosen so each GPU still receives an 8K slice.
	for _, seq := range []int{32768, 65536, 131072} {
		p, err := PaperPlan(Production405B(seq))
		if err != nil {
			t.Fatal(err)
		}
		if seq/p.CP != 8192 {
			t.Fatalf("seq=%d: per-rank slice %d, want 8192", seq, seq/p.CP)
		}
	}
}

func TestSearchFindsTable2NearOptimal(t *testing.T) {
	// The paper's configuration must rank near the top of the full search —
	// validating that §5.1's hand reasoning approximates the optimum.
	for _, seq := range []int{8192, 131072} {
		req := Production405B(seq)
		plans, _ := searchProd(t, seq)
		if len(plans) == 0 {
			t.Fatal("no feasible plans")
		}
		paper, err := PaperPlan(req)
		if err != nil {
			t.Fatal(err)
		}
		if paper.TFLOPsPerGPU < plans[0].TFLOPsPerGPU*0.88 {
			t.Fatalf("seq=%d: paper plan %v trails search best %v by >12%%",
				seq, paper.TFLOPsPerGPU, plans[0].TFLOPsPerGPU)
		}
	}
}

func TestSearchLongContextDemandsCP(t *testing.T) {
	// §5.1: at 131K the batch constraint makes large CP mandatory — every
	// competitive plan uses cp ≥ 8.
	plans, _ := searchProd(t, 131072)
	for i, p := range plans {
		if i >= 3 {
			break
		}
		if p.CP < 8 {
			t.Fatalf("top plan %d uses cp=%d: %v", i, p.CP, p)
		}
	}
}

func TestSearchRespectsMemoryBudget(t *testing.T) {
	req := Production405B(8192)
	plans, _ := searchProd(t, 8192)
	for _, p := range plans {
		if p.PeakMemGiB > req.HBMBudgetGiB {
			t.Fatalf("plan %v exceeds memory budget", p)
		}
		if p.BS < 1 {
			t.Fatalf("plan %v violates bs >= 1", p)
		}
		if p.TP > 8 {
			t.Fatalf("plan %v crosses NVLink boundary", p)
		}
	}
}

func TestFeasibleRejections(t *testing.T) {
	req := Production405B(8192)
	if _, err := req.Feasible(3, 1, 16); err == nil {
		t.Fatal("tp=3 must fail head divisibility")
	}
	if _, err := req.Feasible(8, 5, 16); err == nil {
		t.Fatal("cp=5 must fail sequence divisibility")
	}
	if _, err := req.Feasible(8, 1, 7); err == nil {
		t.Fatal("pp=7 must fail world divisibility")
	}
	// 2D parallelism (tp only, no pp) at 16K GPUs: bs constraint (§5.1).
	small := req
	small.NGPUs = 16384
	if p, err := small.Feasible(1, 1, 1); err == nil {
		// dp = 16384, gbs = 2048 ⇒ bs < 1: must be rejected.
		t.Fatalf("dp=16K with gbs=2K must be infeasible, got %v", p)
	}
}

// TestNegativeHostSizeRejected: a negative HostSize is a degenerate request.
// Every entry point rejects it instead of panicking in the traffic predictor
// (core.Config.Validate refuses the candidate's config).
func TestNegativeHostSizeRejected(t *testing.T) {
	req := Production405B(8192)
	req.HostSize = -1
	table2Short := Candidate{TP: 8, CP: 1, PP: 16, DP: 128, V: 8, NMB: 16, MBS: 1,
		ZeRO: fsdp.ZeRO1, Overlap: true}
	for _, tc := range []struct {
		name     string
		accepted func() bool
	}{
		{"SearchWithStats", func() bool { plans, _ := SearchWithStats(req); return len(plans) > 0 }},
		{"Evaluate", func() bool { _, err := req.Evaluate(table2Short); return err == nil }},
		{"Feasible", func() bool { _, err := req.Feasible(8, 1, 16); return err == nil }},
		{"PaperPlan", func() bool { _, err := PaperPlan(req); return err == nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if tc.accepted() {
				t.Fatal("accepted a negative host size")
			}
		})
	}
}

func TestMinimalTPMatchesPaperAlgebra(t *testing.T) {
	// §5.1: 16M tokens at 8K seq ⇒ gbs=2048; on 16K GPUs under 2D
	// parallelism (pp=cp=1) the smallest NVLink-domain tp the shape check
	// admits is 8, the first with bs = gbs·tp/ngpu ≥ 1.
	minTP := func(r Request) int {
		for _, tp := range tpLadder {
			if _, _, err := r.shape(tp, 1, 1); err == nil {
				return tp
			}
		}
		return 0
	}
	req := Production405B(8192)
	req.NGPUs = 16384
	if got := minTP(req); got != 8 {
		t.Fatalf("minimal 2D tp = %d, want 8", got)
	}
	// Doubling the cluster with the same batch leaves no NVLink-domain tp
	// with bs ≥ 1: the shape is rejected, not defaulted to tp=8.
	req.NGPUs = 32768
	if got := minTP(req); got != 0 {
		t.Fatalf("minimal 2D tp on 32K GPUs = %d, want none", got)
	}
}

func TestPlanString(t *testing.T) {
	p, err := PaperPlan(Production405B(8192))
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "tp=8") || !strings.Contains(s, "pp=16") {
		t.Fatalf("plan string %q", s)
	}
}

func TestTPCapacityStudySection81(t *testing.T) {
	// §8.1: tp=4 outperforms tp=8 when HBM capacity allows it — and does
	// not fit the 80 GB envelope at this scale.
	pts := TPCapacityStudy(2048)
	if len(pts) != 2 {
		t.Fatalf("expected tp=8 and tp=4 points, got %d", len(pts))
	}
	tp8, tp4 := pts[0], pts[1]
	if tp8.TP != 8 || tp4.TP != 4 {
		t.Fatalf("unexpected order: %+v", pts)
	}
	if tp4.TFLOPsPerGPU <= tp8.TFLOPsPerGPU {
		t.Fatalf("tp=4 (%v) must out-throughput tp=8 (%v)", tp4.TFLOPsPerGPU, tp8.TFLOPsPerGPU)
	}
	gain := tp4.TFLOPsPerGPU/tp8.TFLOPsPerGPU - 1
	if gain < 0.02 || gain > 0.20 {
		t.Fatalf("tp 8→4 gain %v, paper reports ≈10%%", gain)
	}
	if tp4.PeakMemGiB <= tp8.PeakMemGiB || tp4.PeakMemGiB < 80 {
		t.Fatalf("tp=4 must need substantially more memory: %+v", pts)
	}
}
