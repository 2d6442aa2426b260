package engine

import (
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/cp"
	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/sim/cluster"
	"llama4d/internal/sim/cost"
)

// TestRankGridsMatchFastPairs pins the sim's tile classifier to the closed
// forms the rest of the engine uses: every CP rank's grid must report exactly
// the allowed-pair count of attention.FastAllowedPairs, the group's grids
// must cover the full seq×seq score matrix, and a document mask must expose
// strictly more empty tiles than plain causal at the same shape.
func TestRankGridsMatchFastPairs(t *testing.T) {
	for _, seq := range []int{4096, 8192} {
		for _, cpSize := range []int{2, 4} {
			for _, doc := range []bool{false, true} {
				ds := docStartsFor(seq, doc, 512, 7)
				grids := rankGrids(seq, cpSize, ds)
				sh := cp.NewSharding(seq, cpSize)
				var allowed, total, emptyCausal int64
				for r, g := range grids {
					if want := attention.FastAllowedPairs(sh.LocalPositions(r), ds); g.AllowedPairs != want {
						t.Fatalf("seq=%d cp=%d doc=%v rank %d: grid %d allowed pairs, FastAllowedPairs %d",
							seq, cpSize, doc, r, g.AllowedPairs, want)
					}
					allowed += g.AllowedPairs
					total += g.TotalPairs()
					emptyCausal += g.EmptyPairs
					if g.EmptyTiles == 0 {
						t.Fatalf("seq=%d cp=%d doc=%v rank %d: no empty tiles on a causal-family mask", seq, cpSize, doc, r)
					}
				}
				if want := attention.FastAllowedPairs(attention.Iota(seq), ds); allowed != want {
					t.Fatalf("seq=%d cp=%d doc=%v: group allowed pairs %d != full-sequence %d", seq, cpSize, doc, allowed, want)
				}
				if want := int64(seq) * int64(seq); total != want {
					t.Fatalf("seq=%d cp=%d: group grids cover %d pairs, want %d", seq, cpSize, total, want)
				}
				if emptyCausal < total-allowed-total/8 {
					// Sanity: tile-granular skipping captures most of the masked volume.
					t.Fatalf("seq=%d cp=%d doc=%v: only %d of %d masked pairs fall in empty tiles",
						seq, cpSize, doc, emptyCausal, total-allowed)
				}
			}
		}
	}
	// The sweep points carry the group's summed census.
	r := CPAttention(cost.Default(), Llama405BTP8(), 8192, 2, docStartsFor(8192, true, 512, 7), false)
	if r.Tiles.Calls != 2 || r.Tiles.EmptyTiles == 0 || r.Tiles.AllowedPairs == 0 {
		t.Fatalf("CPAttention tile census not populated: %+v", r.Tiles)
	}
}

func TestFig11Shapes(t *testing.T) {
	results := Fig11(cost.Default())
	byKey := make(map[[3]int]CPAttnResult) // cp, doc(0/1), seq
	for _, r := range results {
		d := 0
		if r.DocMask {
			d = 1
		}
		byKey[[3]int{r.CP, d, r.Seq}] = r
	}
	// (1) Relative HFU < 100% everywhere (communication is exposed).
	for k, r := range byKey {
		if r.RelativeHFU >= 1 || r.RelativeHFU <= 0 {
			t.Fatalf("%v: relative HFU %v outside (0,1)", k, r.RelativeHFU)
		}
	}
	// (2) Longer sequences achieve higher relative HFU for causal masks
	// (O(seq) comm vs O(seq²) compute, §4): monotone over the sweep.
	for _, cp := range []int{2, 4} {
		prev := 0.0
		for _, seq := range SweepSeqs {
			r := byKey[[3]int{cp, 0, seq}]
			if r.RelativeHFU < prev {
				t.Fatalf("cp=%d causal: HFU not monotone at seq=%d (%v < %v)", cp, seq, r.RelativeHFU, prev)
			}
			prev = r.RelativeHFU
		}
		// Paper: up to 95% at 128K.
		if last := byKey[[3]int{cp, 0, 131072}]; last.RelativeHFU < 0.9 {
			t.Fatalf("cp=%d causal 128K HFU %v, want ≥ 0.9", cp, last.RelativeHFU)
		}
	}
	// (3) Block-causal (document) masks lose relative HFU to workload
	// imbalance at every point.
	for _, cp := range []int{2, 4} {
		for _, seq := range SweepSeqs {
			causal := byKey[[3]int{cp, 0, seq}]
			doc := byKey[[3]int{cp, 1, seq}]
			if doc.RelativeHFU >= causal.RelativeHFU {
				t.Fatalf("cp=%d seq=%d: doc HFU %v not below causal %v", cp, seq, doc.RelativeHFU, causal.RelativeHFU)
			}
		}
	}
	// (4) Larger cp pays more communication: cp=4 ≤ cp=2 for causal.
	for _, seq := range SweepSeqs {
		if byKey[[3]int{4, 0, seq}].RelativeHFU > byKey[[3]int{2, 0, seq}].RelativeHFU {
			t.Fatalf("seq=%d: cp=4 HFU above cp=2", seq)
		}
	}
}

func TestFig12BandwidthShape(t *testing.T) {
	results := Fig11(cost.Default())
	// Achieved all-gather bandwidth grows with sequence length and is
	// comparable between causal and block-causal masks (same bytes).
	var prev float64
	for _, seq := range SweepSeqs {
		var causal, doc CPAttnResult
		for _, r := range results {
			if r.CP == 2 && r.Seq == seq {
				if r.DocMask {
					doc = r
				} else {
					causal = r
				}
			}
		}
		if causal.AGBandwidth < prev {
			t.Fatalf("AG bandwidth not monotone at seq=%d", seq)
		}
		prev = causal.AGBandwidth
		if causal.AGBandwidth != doc.AGBandwidth {
			t.Fatalf("seq=%d: causal vs doc AG bandwidth must match (%v vs %v)",
				seq, causal.AGBandwidth, doc.AGBandwidth)
		}
	}
}

func TestFig13AllGatherVsRing(t *testing.T) {
	results := Fig13(cost.Default())
	get := func(cp, seq int, method string) CPAttnResult {
		for _, r := range results {
			if r.CP == cp && r.Seq == seq && r.Method == method {
				return r
			}
		}
		t.Fatalf("missing %s cp=%d seq=%d", method, cp, seq)
		return CPAttnResult{}
	}
	// Paper: both exceed 95% relative HFU beyond 64K.
	for _, cp := range []int{2, 4} {
		for _, seq := range []int{65536, 131072} {
			if ag := get(cp, seq, "allgather"); ag.RelativeHFU < 0.95 {
				t.Fatalf("allgather cp=%d seq=%d HFU %v < 0.95", cp, seq, ag.RelativeHFU)
			}
			if ring := get(cp, seq, "ring"); ring.RelativeHFU < 0.90 {
				t.Fatalf("ring cp=%d seq=%d HFU %v < 0.90", cp, seq, ring.RelativeHFU)
			}
		}
	}
	// Paper: all-gather CP consistently beats ring at cp=4, most strongly at
	// 4K/8K (fragmented kernels + merge overheads).
	for _, seq := range SweepSeqs {
		ag, ring := get(4, seq, "allgather"), get(4, seq, "ring")
		if ag.RelativeHFU <= ring.RelativeHFU {
			t.Fatalf("cp=4 seq=%d: allgather %v not above ring %v", seq, ag.RelativeHFU, ring.RelativeHFU)
		}
	}
	shortGap := get(4, 8192, "allgather").RelativeHFU - get(4, 8192, "ring").RelativeHFU
	longGap := get(4, 131072, "allgather").RelativeHFU - get(4, 131072, "ring").RelativeHFU
	if shortGap <= longGap {
		t.Fatalf("advantage must concentrate at short sequences: 8K gap %v vs 128K gap %v", shortGap, longGap)
	}
	if shortGap < 0.05 {
		t.Fatalf("8K cp=4 advantage %v too small (paper: up to 13.5%%)", shortGap)
	}
}

// TestCPSweepUsesChooserPrices: the Fig 11-13 figures price the K/V exchange
// with the runtime chooser's own functions, bit for bit, and Fig 13's winner
// at every point is the one cost.CPRingWins picks.
func TestCPSweepUsesChooserPrices(t *testing.T) {
	shape := Llama405BTP8()
	price := func(m cost.Model, r CPAttnResult) float64 {
		ranks := cluster.RanksOfGroup(0, r.CP, 1)
		if r.Method == "ring" {
			return m.CPRingTime(ranks, r.Seq, shape.Heads, shape.KVHeads, shape.HeadDim)
		}
		return m.CPAllGatherTime(ranks, r.Seq, shape.KVHeads, shape.HeadDim)
	}
	hbm2e := cost.Default().WithGPU(cluster.H100HBM2e())
	for _, r := range Fig11(cost.Default()) {
		if r.CommTime != price(hbm2e, r) {
			t.Fatalf("Fig 11 %s cp=%d seq=%d doc=%v: comm %v, chooser prices %v",
				r.Method, r.CP, r.Seq, r.DocMask, r.CommTime, price(hbm2e, r))
		}
	}
	m := cost.Default()
	fig13 := Fig13(m)
	for i := 0; i < len(fig13); i += 2 {
		ag, ring := fig13[i], fig13[i+1]
		for _, r := range []CPAttnResult{ag, ring} {
			if r.CommTime != price(m, r) {
				t.Fatalf("Fig 13 %s cp=%d seq=%d: comm %v, chooser prices %v", r.Method, r.CP, r.Seq, r.CommTime, price(m, r))
			}
		}
		ranks := cluster.RanksOfGroup(0, ag.CP, 1)
		wins := m.CPRingWins(ranks, ag.Seq, shape.Heads, shape.KVHeads, shape.HeadDim)
		if ringLeads := ring.RelativeHFU > ag.RelativeHFU; ringLeads != wins {
			t.Fatalf("Fig 13 cp=%d seq=%d: ring leads %v, CPRingWins %v", ag.CP, ag.Seq, ringLeads, wins)
		}
	}
}

func TestProduction8KTFLOPs(t *testing.T) {
	rep, err := Production8K().Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 400 TFLOPs/GPU at 8K. Accept the band 360-480.
	if rep.TFLOPsPerGPU < 360 || rep.TFLOPsPerGPU > 480 {
		t.Fatalf("8K TFLOPs/GPU = %v, want ≈400", rep.TFLOPsPerGPU)
	}
	// Paper: 12%% bubble at bs = pp.
	if rep.BubbleRatio < 0.08 || rep.BubbleRatio > 0.20 {
		t.Fatalf("8K bubble = %v, want ≈0.12", rep.BubbleRatio)
	}
}

func TestProduction128KTFLOPs(t *testing.T) {
	rep8, err := Production8K().Simulate()
	if err != nil {
		t.Fatal(err)
	}
	rep128, err := Production128K().Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 380 TFLOPs/GPU at 131K — slightly below the 8K figure.
	if rep128.TFLOPsPerGPU < 340 || rep128.TFLOPsPerGPU > 440 {
		t.Fatalf("128K TFLOPs/GPU = %v, want ≈380", rep128.TFLOPsPerGPU)
	}
	if rep128.TFLOPsPerGPU >= rep8.TFLOPsPerGPU {
		t.Fatalf("128K (%v) must be below 8K (%v)", rep128.TFLOPsPerGPU, rep8.TFLOPsPerGPU)
	}
}

func TestBubbleBsTwicePP(t *testing.T) {
	// §7.3.1: 5%% bubble at bs = 2·pp vs 12%% at bs = pp.
	base := Production8K()
	double := base
	double.NMB = 32
	double.DP = 64
	rb, err := base.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := double.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if rd.BubbleRatio >= rb.BubbleRatio*0.75 {
		t.Fatalf("bs=2pp bubble %v not well below bs=pp bubble %v", rd.BubbleRatio, rb.BubbleRatio)
	}
	if rd.BubbleRatio > 0.12 {
		t.Fatalf("bs=2pp bubble %v, paper reports ≈5%%", rd.BubbleRatio)
	}
}

func TestRecomputeCostsThroughput(t *testing.T) {
	base := Production8K()
	rec := base
	rec.Recompute = model.RecomputeFull
	sel := base
	sel.Recompute = model.RecomputeSelective
	rb, _ := base.Simulate()
	rr, _ := rec.Simulate()
	rs, _ := sel.Simulate()
	if rr.TFLOPsPerGPU >= rb.TFLOPsPerGPU {
		t.Fatalf("recompute must reduce model TFLOPs: %v vs %v", rr.TFLOPsPerGPU, rb.TFLOPsPerGPU)
	}
	if rs.TFLOPsPerGPU <= rr.TFLOPsPerGPU || rs.TFLOPsPerGPU >= rb.TFLOPsPerGPU {
		t.Fatalf("selective recompute %v must sit between full %v and none %v",
			rs.TFLOPsPerGPU, rr.TFLOPsPerGPU, rb.TFLOPsPerGPU)
	}
}

func TestDocMaskImbalanceFig14(t *testing.T) {
	m := cost.Default()
	rep := DocMaskImbalance(m, model.Llama3_405B(), 8, 131072, 16, 4096, 16, 8, 3)
	// Paper: slowest/fastest total compute ≈ 1.44×.
	if rep.SlowFastRatio < 1.15 || rep.SlowFastRatio > 2.0 {
		t.Fatalf("slow/fast compute ratio %v, paper reports 1.44", rep.SlowFastRatio)
	}
	// The gap must be attributable to attention: attention ratio exceeds the
	// total-compute ratio (GEMMs are balanced).
	if rep.AttnSlowFastRatio <= rep.SlowFastRatio {
		t.Fatalf("attention ratio %v must exceed total ratio %v", rep.AttnSlowFastRatio, rep.SlowFastRatio)
	}
	// Paper: CP exposed ≈ 7.64%% of elapsed; waiting ≈ 65.75%% of exposed.
	if rep.CPExposedFrac < 0.02 || rep.CPExposedFrac > 0.20 {
		t.Fatalf("CP exposed fraction %v, paper reports 0.0764", rep.CPExposedFrac)
	}
	if rep.WaitFracOfExposed < 0.35 || rep.WaitFracOfExposed > 0.9 {
		t.Fatalf("wait fraction of exposed %v, paper reports 0.6575", rep.WaitFracOfExposed)
	}
	// Upper bound on perfect-overlap gain is small (paper: 2.62%%).
	if rep.OverlapUpperBound <= 0 || rep.OverlapUpperBound > 0.10 {
		t.Fatalf("overlap upper bound %v, paper reports 0.0262", rep.OverlapUpperBound)
	}
}

func TestImbalanceGrowsWithCP(t *testing.T) {
	// §7.3.2: the imbalance worsens with larger cp.
	m := cost.Default()
	cfg := model.Llama3_405B()
	small := DocMaskImbalance(m, cfg, 8, 65536, 4, 4096, 24, 4, 5)
	big := DocMaskImbalance(m, cfg, 8, 65536, 16, 4096, 24, 4, 5)
	if big.AttnSlowFastRatio <= small.AttnSlowFastRatio {
		t.Fatalf("cp=16 attention imbalance %v not above cp=4 %v",
			big.AttnSlowFastRatio, small.AttnSlowFastRatio)
	}
}

// TestSimulateRejectsBadShape: a configuration that cannot run returns an
// error — never a panic (divide by zero, a constructor's panic) and never a
// report for a world without GPUs.
func TestSimulateRejectsBadShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*TrainSim)
	}{
		{"tp=3 for 128 heads", func(ts *TrainSim) { ts.TP = 3 }},
		{"tp=0", func(ts *TrainSim) { ts.TP = 0 }},
		{"cp=3 for seq 8192", func(ts *TrainSim) { ts.CP = 3 }},
		{"nmb=0", func(ts *TrainSim) { ts.NMB = 0 }},
		{"v=0", func(ts *TrainSim) { ts.V = 0 }},
		{"dp=0", func(ts *TrainSim) { ts.DP = 0 }},
		{"schedule of another shape", func(ts *TrainSim) { ts.Schedule = pp.NewFlexible(ts.PP, ts.V/2, ts.NMB, ts.NC) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := Production8K()
			tc.edit(&ts)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			if rep, err := ts.Simulate(); err == nil {
				t.Fatalf("accepted, step time %v", rep.StepTime)
			}
		})
	}
}

func BenchmarkProduction8KSimulate(b *testing.B) {
	ts := Production8K()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Sweep(b *testing.B) {
	m := cost.Default()
	for i := 0; i < b.N; i++ {
		Fig11(m)
	}
}

func TestJitterStudyGrowsWithScale(t *testing.T) {
	// §8.1: with independent transient slowdowns, expected step inflation
	// is monotone in cluster size (synchronisation makes every straggler
	// global).
	pts := JitterStudy([]int{16, 256, 4096, 16384}, 1e-4, 1.3, 4000, 2)
	for i := 1; i < len(pts); i++ {
		if pts[i].Slowdown < pts[i-1].Slowdown {
			t.Fatalf("jitter not monotone: %+v", pts)
		}
	}
	if pts[0].Slowdown > 1.02 {
		t.Fatalf("16-GPU inflation %v should be negligible", pts[0].Slowdown)
	}
	if pts[len(pts)-1].Slowdown < 1.1 {
		t.Fatalf("16K-GPU inflation %v should be substantial", pts[len(pts)-1].Slowdown)
	}
}

func TestNetworkSweepDiminishingReturns(t *testing.T) {
	pts := NetworkSweep([]float64{12.5, 25, 50, 100, 200})
	for i := 1; i < len(pts); i++ {
		if pts[i].TFLOPsPerGPU <= pts[i-1].TFLOPsPerGPU {
			t.Fatalf("throughput must rise with bandwidth: %+v", pts)
		}
	}
	firstGain := pts[1].TFLOPsPerGPU - pts[0].TFLOPsPerGPU
	lastGain := pts[len(pts)-1].TFLOPsPerGPU - pts[len(pts)-2].TFLOPsPerGPU
	if lastGain >= firstGain {
		t.Fatalf("returns must diminish: first %+v last %+v", firstGain, lastGain)
	}
}

func TestCPUOverheadStudyDecays(t *testing.T) {
	pts := CPUOverheadStudy([]float64{2, 20, 60})
	for i := 1; i < len(pts); i++ {
		if pts[i].TFLOPsPerGPU >= pts[i-1].TFLOPsPerGPU {
			t.Fatalf("throughput must decay with launch overhead: %+v", pts)
		}
	}
}

func TestPerfPerWattFavoursEfficientChip(t *testing.T) {
	h100 := PerfPerWatt(cluster.H100())
	eff := PerfPerWatt(FutureGPU(700, 3350, 450))
	if eff <= h100 {
		t.Fatalf("lower-power chip perf/W %v must beat H100 %v", eff, h100)
	}
}

func TestScalingStudyCapabilityWall(t *testing.T) {
	pts := ScalingStudy([]int{2048, 4096, 8192, 16384})
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		// Per-GPU efficiency falls with scale (fixed batch ⇒ larger bubble)…
		if pts[i].TFLOPsPerGPU >= pts[i-1].TFLOPsPerGPU {
			t.Fatalf("per-GPU TFLOPs must fall with scale: %+v", pts)
		}
		if pts[i].BubbleRatio <= pts[i-1].BubbleRatio {
			t.Fatalf("bubble must grow with scale: %+v", pts)
		}
		// …while the cluster still gets faster in aggregate.
		if pts[i].ClusterPF <= pts[i-1].ClusterPF {
			t.Fatalf("aggregate throughput must rise: %+v", pts)
		}
	}
}
