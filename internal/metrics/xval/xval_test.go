package xval

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/core"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

// sweepCase is one point of the measured-vs-modeled conformance grid.
type sweepCase struct {
	name       string
	topo       core.Topology
	v, nmb, nc int
	zero       fsdp.Mode
	rec        model.RecomputeMode
	balanced   bool
	gbs        int
	host       int // Config.HostSize: 0 = flat, >0 = hierarchical collectives
}

func sweepModel() model.Config {
	return model.Config{
		Vocab: 64, Dim: 32, Hidden: 64, NHeads: 4, NKVHeads: 2, NLayers: 4,
	}
}

func sweepCases() []sweepCase {
	t := func(tp, cp, pp, dp int) core.Topology { return core.Topology{TP: tp, CP: cp, PP: pp, DP: dp} }
	return []sweepCase{
		{name: "base", topo: t(1, 1, 1, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "tp2", topo: t(2, 1, 1, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "cp2", topo: t(1, 2, 1, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "pp2", topo: t(1, 1, 2, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "dp2_zero1", topo: t(1, 1, 1, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "dp2_zero2", topo: t(1, 1, 1, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO2, gbs: 4},
		{name: "dp2_zero3", topo: t(1, 1, 1, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO3, gbs: 4},
		{name: "pp2_v2", topo: t(1, 1, 2, 1), v: 2, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "pp2_selective", topo: t(1, 1, 2, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, rec: model.RecomputeSelective, gbs: 4},
		{name: "pp2_full", topo: t(1, 1, 2, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, rec: model.RecomputeFull, gbs: 4},
		{name: "tp2_cp2", topo: t(2, 2, 1, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "tp2_pp2_zero2_sel", topo: t(2, 1, 2, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO2, rec: model.RecomputeSelective, gbs: 4},
		{name: "cp2_dp2_zero3_full", topo: t(1, 2, 1, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO3, rec: model.RecomputeFull, gbs: 4},
		{name: "4d_16rank", topo: t(2, 2, 2, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4},
		{name: "pp2_v3_balanced", topo: t(1, 1, 2, 1), v: 3, nmb: 2, nc: 2, zero: fsdp.ZeRO1, balanced: true, gbs: 4},
		{name: "pp2_afab_ragged", topo: t(1, 1, 2, 1), v: 1, nmb: 3, nc: 1, zero: fsdp.ZeRO1, gbs: 6},
		// Hierarchical-collective cases (appended so earlier indices stay
		// stable for tests that pick cases by position). host4 tiles the 16
		// ranks into 4 hosts of 4; host6 leaves a ragged last host of 4;
		// host32 swallows the whole world into one host and must fall back
		// to flat transport and accounting end to end.
		{name: "4d_16rank_host4", topo: t(2, 2, 2, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4, host: 4},
		{name: "tp2_cp2_host2_zero3", topo: t(2, 2, 1, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO3, gbs: 4, host: 2},
		{name: "4d_16rank_host6_ragged", topo: t(2, 2, 2, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO2, rec: model.RecomputeSelective, gbs: 4, host: 6},
		{name: "4d_16rank_host32_flat", topo: t(2, 2, 2, 2), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, gbs: 4, host: 32},
		// Two more CP shapes (appended — earlier indices stay stable): a CP
		// group of four under full recomputation, whose replay re-issues
		// every K/V all-gather, and CP beside PP under selective
		// recomputation.
		{name: "cp4_full", topo: t(1, 4, 1, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, rec: model.RecomputeFull, gbs: 4},
		{name: "cp2_pp2_sel", topo: t(1, 2, 2, 1), v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO1, rec: model.RecomputeSelective, gbs: 4},
	}
}

func (sc sweepCase) config() core.Config {
	return core.Config{
		Model:     sweepModel(),
		Topo:      sc.topo,
		V:         sc.v,
		NMB:       sc.nmb,
		NC:        sc.nc,
		ZeRO:      sc.zero,
		Balanced:  sc.balanced,
		Recompute: sc.rec,
		Seq:       16,
		GBS:       sc.gbs,
		LR:        0.01,
		Seed:      42,
		HostSize:  sc.host,
	}
}

// runMeasuredSteps builds the cluster, attaches a registry, runs two
// training steps under the causal mask, and returns the cluster with both
// step reports.
func runMeasuredSteps(t *testing.T, sc sweepCase) (*core.Cluster, []*metrics.StepReport) {
	t.Helper()
	cl, reps, _ := runMaskedSteps(t, sc, false)
	return cl, reps
}

// TestSweepCommAndFLOPsExact is the tentpole conformance sweep: for every
// 4D configuration, the measured per-rank (group, op) byte and message
// counts and the world FLOP total of both the first and a steady-state step
// must equal the analytic prediction exactly.
func TestSweepCommAndFLOPsExact(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cl, reps := runMeasuredSteps(t, sc)
			for step, rep := range reps {
				ex := Predict(cl, step > 0)
				if rep.FLOPs != ex.FLOPs {
					t.Errorf("step %d: measured %d FLOPs, predicted %d", step, rep.FLOPs, ex.FLOPs)
				}
				for _, rr := range rep.Ranks {
					want := ex.Comm[rr.Rank]
					for k, v := range rr.Comm {
						if w, ok := want[k]; !ok {
							t.Errorf("step %d rank %d: measured unpredicted traffic %s: %+v", step, rr.Rank, k, v)
						} else if v != w {
							t.Errorf("step %d rank %d %s: measured %+v, predicted %+v", step, rr.Rank, k, v, w)
						}
					}
					for k, w := range want {
						if _, ok := rr.Comm[k]; !ok {
							t.Errorf("step %d rank %d: predicted %s (%+v) never measured", step, rr.Rank, k, w)
						}
					}
				}
			}
		})
	}
}

// TestSweepActivationPeak asserts the measured live-activation high-water
// mark of every rank equals memsim's functional model. The model is exact
// by construction (it walks the executor's actual retention set), so the
// primary assertion is equality; the 10% bound is the hard acceptance
// criterion that would catch a model drifting from the implementation.
func TestSweepActivationPeak(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cl, reps := runMeasuredSteps(t, sc)
			mc := MemConfig(cl)
			rep := reps[1]
			for _, r := range cl.Ranks {
				want := mc.FunctionalActivation(r.Coord.PP, cl.Cfg.Recompute)
				got := float64(rep.Ranks[r.ID].PeakActivationBytes)
				if want == 0 {
					t.Fatalf("rank %d: predicted zero activation peak", r.ID)
				}
				rel := math.Abs(got-want) / want
				if rel > 0.10 {
					t.Errorf("rank %d: measured peak %0.f bytes off prediction %.0f by %.1f%% (>10%%)",
						r.ID, got, want, 100*rel)
				} else if got != want {
					t.Errorf("rank %d: measured peak %.0f bytes != predicted %.0f (%.2f%% off)",
						r.ID, got, want, 100*rel)
				}
			}
		})
	}
}

// TestSweepScheduleConformance replays each measured op log through the
// analytic pipeline model: the measured schedule must validate, its
// simulated bubble ratio must equal the planned schedule's exactly, and the
// measured peak live context count must equal Schedule.PeakInFlight.
func TestSweepScheduleConformance(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cl, reps := runMeasuredSteps(t, sc)
			rep := reps[1]
			meas, err := MeasuredSchedule(cl, rep)
			if err != nil {
				t.Fatalf("measured schedule invalid: %v", err)
			}
			mtl, err := meas.Simulate(pp.UniformCosts(1, 0))
			if err != nil {
				t.Fatalf("simulating measured schedule: %v", err)
			}
			ptl, err := cl.Sched.Simulate(pp.UniformCosts(1, 0))
			if err != nil {
				t.Fatalf("simulating planned schedule: %v", err)
			}
			if got, want := mtl.BubbleRatio(), ptl.BubbleRatio(); got != want {
				t.Errorf("bubble ratio: measured schedule %v, planned %v", got, want)
			}
			if !reflect.DeepEqual(meas.Ranks, cl.Sched.Ranks) {
				t.Errorf("measured op order diverges from planned schedule")
			}
			peaks := cl.Sched.PeakInFlight()
			for _, r := range cl.Ranks {
				if got, want := rep.Ranks[r.ID].PeakLiveContexts, peaks[r.Coord.PP]; got != want {
					t.Errorf("rank %d: measured peak contexts %d, schedule says %d", r.ID, got, want)
				}
			}
		})
	}
}

// TestReportShape covers the report plumbing on one representative config:
// wall time and pool traffic are populated, JSON and table render, and the
// comm totals helper agrees with a manual sum.
func TestReportShape(t *testing.T) {
	sc := sweepCases()[13] // 4d_16rank
	_, reps := runMeasuredSteps(t, sc)
	rep := reps[1]
	if rep.WallSeconds <= 0 {
		t.Errorf("wall seconds %v, want > 0", rep.WallSeconds)
	}
	if rep.Pool.Gets == 0 {
		t.Errorf("pool gets 0, want > 0 (steps draw from the arena)")
	}
	var manual int64
	for _, rr := range rep.Ranks {
		for _, v := range rr.Comm {
			manual += v.Bytes
		}
		if rr.ComputeSeconds <= 0 {
			t.Errorf("rank %d: compute seconds %v, want > 0", rr.Rank, rr.ComputeSeconds)
		}
	}
	if got := rep.TotalCommBytes(""); got != manual {
		t.Errorf("TotalCommBytes = %d, manual sum %d", got, manual)
	}
	if rep.TotalCommBytes("tp") >= manual {
		t.Errorf("tp-only total should be a strict subset of %d", manual)
	}
	if s := rep.Table(); len(s) == 0 {
		t.Errorf("empty table rendering")
	}
	if js, err := json.Marshal(rep); err != nil || len(js) == 0 {
		t.Errorf("JSON rendering: %d bytes, %v", len(js), err)
	}
}

// runOverlapSteps is runMeasuredSteps with an overlap configuration applied,
// returning the per-step global losses alongside the reports.
func runOverlapSteps(t *testing.T, sc sweepCase, ov core.OverlapConfig, steps int) (*core.Cluster, []float64, []*metrics.StepReport) {
	t.Helper()
	cfg := sc.config()
	cfg.Overlap = ov
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	reg := metrics.NewRegistry(cfg.Topo.World())
	cl.Attach(reg)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 8, Seed: 7}
	var losses []float64
	var reps []*metrics.StepReport
	for step := int64(0); step < int64(steps); step++ {
		reg.BeginStep(step)
		losses = append(losses, cl.Step(gen, step))
		reps = append(reps, reg.EndStep())
	}
	return cl, losses, reps
}

// assertClustersBitwiseEqual compares every rank's full parameter buffers of
// two same-topology clusters bit for bit.
func assertClustersBitwiseEqual(t *testing.T, a, b *core.Cluster, label string) {
	t.Helper()
	if err := a.MaterializeParams(); err != nil {
		t.Fatalf("materializing params: %v", err)
	}
	if err := b.MaterializeParams(); err != nil {
		t.Fatalf("materializing params: %v", err)
	}
	for i := range a.Ranks {
		pa, pb := a.Ranks[i].Shard.Params(), b.Ranks[i].Shard.Params()
		if len(pa) != len(pb) {
			t.Fatalf("%s: rank %d has %d vs %d params", label, i, len(pa), len(pb))
		}
		for j := range pa {
			for k := range pa[j].W.Data {
				if math.Float32bits(pa[j].W.Data[k]) != math.Float32bits(pb[j].W.Data[k]) {
					t.Fatalf("%s: rank %d param %q element %d: %v != %v (not bitwise equal)",
						label, i, pa[j].Name, k, pa[j].W.Data[k], pb[j].W.Data[k])
					return
				}
			}
		}
	}
}

// TestSweepOverlapBitwiseAndVolumes is the overlap half of the conformance
// sweep: for every configuration, a run with every overlap knob turned on
// (prefetch depth 2, async gradient reductions, P2P window 2) must produce
// bitwise-identical per-step losses and final weights to the synchronous run,
// its total measured traffic must still match the analytic prediction
// exactly, and the measured nonblocking-issued subset must equal the
// predicted Overlapped breakdown exactly — while the synchronous run issues
// nothing nonblocking at all.
func TestSweepOverlapBitwiseAndVolumes(t *testing.T) {
	ov := core.OverlapConfig{Params: 2, Grads: true, P2P: 2}
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			syncCl, syncLoss, syncReps := runOverlapSteps(t, sc, core.OverlapConfig{}, 2)
			ovCl, ovLoss, ovReps := runOverlapSteps(t, sc, ov, 2)
			for step := range syncLoss {
				if math.Float64bits(syncLoss[step]) != math.Float64bits(ovLoss[step]) {
					t.Errorf("step %d: overlapped loss %v != synchronous %v (not bitwise equal)",
						step, ovLoss[step], syncLoss[step])
				}
			}
			assertClustersBitwiseEqual(t, syncCl, ovCl, "final weights")
			for step, rep := range ovReps {
				ex := Predict(ovCl, step > 0)
				for _, rr := range rep.Ranks {
					if !reflect.DeepEqual(rr.Comm, ex.Comm[rr.Rank]) {
						t.Errorf("step %d rank %d: overlapped-run comm %+v != predicted %+v",
							step, rr.Rank, rr.Comm, ex.Comm[rr.Rank])
					}
					wantO := ex.Overlapped[rr.Rank]
					gotO := rr.Overlapped
					if gotO == nil {
						gotO = map[string]metrics.OpVolume{}
					}
					if len(wantO) == 0 && len(gotO) == 0 {
						continue
					}
					if !reflect.DeepEqual(gotO, wantO) {
						t.Errorf("step %d rank %d: measured overlapped %+v != predicted %+v",
							step, rr.Rank, gotO, wantO)
					}
				}
			}
			// The synchronous run issues nothing nonblocking: no overlapped
			// traffic, predicted or measured, and no async comm time.
			for step, rep := range syncReps {
				ex := Predict(syncCl, step > 0)
				for _, rr := range rep.Ranks {
					if len(ex.Overlapped[rr.Rank]) != 0 || len(rr.Overlapped) != 0 {
						t.Errorf("step %d rank %d: synchronous run overlapped %+v, predicted %+v",
							step, rr.Rank, rr.Overlapped, ex.Overlapped[rr.Rank])
					}
					if rr.ExposedCommSeconds != 0 || rr.OverlapCommSeconds != 0 {
						t.Errorf("step %d rank %d: synchronous run recorded async comm time (exposed %v, hidden %v)",
							step, rr.Rank, rr.ExposedCommSeconds, rr.OverlapCommSeconds)
					}
				}
			}
		})
	}
}

// runMaskedSteps is runMeasuredSteps with the document mask selectable,
// returning the reports and the data generator (so the attention predictor
// can rebuild the exact sample stream).
func runMaskedSteps(t *testing.T, sc sweepCase, docMask bool) (*core.Cluster, []*metrics.StepReport, *data.Generator) {
	t.Helper()
	cfg := sc.config()
	cfg.UseDocMask = docMask
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	reg := metrics.NewRegistry(cfg.Topo.World())
	cl.Attach(reg)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 8, Seed: 7}
	var reps []*metrics.StepReport
	for step := int64(0); step < 2; step++ {
		reg.BeginStep(step)
		cl.Step(gen, step)
		reps = append(reps, reg.EndStep())
	}
	return cl, reps, gen
}

// TestSweepBlockedAttentionExact is the blocked-attention half of the
// conformance sweep, for both masks (causal and document) over every 4D
// configuration, at a 4×4 tiling so the 16-token sweep sequence actually
// tiles. It asserts the accounting contract: the measured attention tile
// census and effective FLOPs equal PredictAttention's closed-form values
// exactly, world-total and per rank. (Bitwise equality with the dense
// kernels is pinned where the oracles live: attention's
// TestBlockedMatchesDenseGrid.)
func TestSweepBlockedAttentionExact(t *testing.T) {
	prevR, prevC := attention.SetTiling(4, 4)
	defer attention.SetTiling(prevR, prevC)
	for _, sc := range sweepCases() {
		for _, docMask := range []bool{false, true} {
			name := sc.name + "/causal"
			if docMask {
				name = sc.name + "/docmask"
			}
			t.Run(name, func(t *testing.T) {
				cl, reps, gen := runMaskedSteps(t, sc, docMask)
				for step, rep := range reps {
					wantStats, skipped := PredictAttention(cl, gen, int64(step))
					if rep.Attn != wantStats {
						t.Errorf("step %d: measured attention stats %+v != predicted %+v",
							step, rep.Attn, wantStats)
					}
					// Per-rank census: each rank's measured recorder equals the
					// closed-form per-rank prediction exactly, and the report's
					// imbalance summary equals the modeled one (same arithmetic
					// over the same effective-FLOP loads).
					perRank := PredictAttentionPerRank(cl, gen, int64(step))
					for _, rr := range rep.Ranks {
						want := perRank[rr.Rank]
						if rr.Attn != want.Stats {
							t.Errorf("step %d rank %d: measured rank attention stats %+v != predicted %+v",
								step, rr.Rank, rr.Attn, want.Stats)
						}
						if rr.AttnEffFLOPs != want.EffFLOPs {
							t.Errorf("step %d rank %d: measured eff FLOPs %d != predicted %d",
								step, rr.Rank, rr.AttnEffFLOPs, want.EffFLOPs)
						}
						if rr.AttnNominalFLOPs != want.NominalFLOPs {
							t.Errorf("step %d rank %d: measured nominal FLOPs %d != predicted %d",
								step, rr.Rank, rr.AttnNominalFLOPs, want.NominalFLOPs)
						}
					}
					if wantImb := PredictImbalance(perRank); !reflect.DeepEqual(rep.Imbalance, wantImb) {
						t.Errorf("step %d: measured imbalance %+v != modeled %+v",
							step, rep.Imbalance, wantImb)
					}
					if skipped <= 0 {
						t.Errorf("step %d: predicted zero skipped FLOPs — sweep config exercises no sparsity", step)
					}
					if got, want := rep.EffectiveFLOPs, rep.FLOPs-skipped; got != want {
						t.Errorf("step %d: measured effective FLOPs %d != nominal %d - skipped %d = %d",
							step, got, rep.FLOPs, skipped, want)
					}
					if ex := Predict(cl, step > 0); rep.FLOPs != ex.FLOPs {
						t.Errorf("step %d: blocked run nominal FLOPs %d != predicted %d", step, rep.FLOPs, ex.FLOPs)
					}
				}
			})
		}
	}
}

// TestConcurrentClustersReportOwnAttention steps two different clusters at
// the same time in one process, each with its own registry, and holds every
// step's window open until the other cluster has finished stepping. Each
// report's census must still be exactly its own cluster's closed form: the
// registry sums its per-rank recorders, not a process-wide counter.
func TestConcurrentClustersReportOwnAttention(t *testing.T) {
	prevR, prevC := attention.SetTiling(4, 4)
	defer attention.SetTiling(prevR, prevC)
	cases := sweepCases()
	arms := []struct {
		sc      sweepCase
		docMask bool
	}{{cases[2], true}, {cases[11], false}} // cp2 under a document mask, tp2_pp2 causal
	var begun, stepped, done sync.WaitGroup
	begun.Add(len(arms))
	stepped.Add(len(arms))
	for _, arm := range arms {
		cfg := arm.sc.config()
		cfg.UseDocMask = arm.docMask
		cl, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		reg := metrics.NewRegistry(cfg.Topo.World())
		cl.Attach(reg)
		gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 8, Seed: 7}
		done.Add(1)
		go func() {
			defer done.Done()
			reg.BeginStep(0)
			begun.Done()
			begun.Wait()
			cl.Step(gen, 0)
			stepped.Done()
			stepped.Wait()
			rep := reg.EndStep()
			if want, _ := PredictAttention(cl, gen, 0); rep.Attn != want || want.Calls == 0 {
				t.Errorf("%s: measured attention stats %+v != its own prediction %+v", arm.sc.name, rep.Attn, want)
			}
		}()
	}
	done.Wait()
}

// TestPrefetchDepthProperty is the prefetch-depth property test: on the full
// 4D 16-rank topology under ZeRO-3, prefetch depths 0, 1, and 2 must all
// yield bitwise-identical losses and weights, with any positive depth issuing
// every steady-state parameter re-gather nonblocking.
func TestPrefetchDepthProperty(t *testing.T) {
	sc := sweepCase{
		name: "4d_16rank_zero3", topo: core.Topology{TP: 2, CP: 2, PP: 2, DP: 2},
		v: 1, nmb: 2, nc: 2, zero: fsdp.ZeRO3, gbs: 4,
	}
	const steps = 3
	var refCl *core.Cluster
	var refLoss []float64
	for _, depth := range []int{0, 1, 2} {
		cl, losses, reps := runOverlapSteps(t, sc, core.OverlapConfig{Params: depth}, steps)
		if refCl == nil {
			refCl, refLoss = cl, losses
			continue
		}
		for step := range refLoss {
			if math.Float64bits(refLoss[step]) != math.Float64bits(losses[step]) {
				t.Errorf("depth %d step %d: loss %v != depth-0 loss %v (not bitwise equal)",
					depth, step, losses[step], refLoss[step])
			}
		}
		assertClustersBitwiseEqual(t, refCl, cl, fmt.Sprintf("depth %d weights", depth))
		// Steady-state steps must re-gather every unit nonblocking.
		for step := 1; step < steps; step++ {
			ex := Predict(cl, true)
			for _, rr := range reps[step].Ranks {
				wantO := ex.Overlapped[rr.Rank]
				gotO := rr.Overlapped
				if gotO == nil {
					gotO = map[string]metrics.OpVolume{}
				}
				if !reflect.DeepEqual(gotO, wantO) {
					t.Errorf("depth %d step %d rank %d: overlapped %+v != predicted %+v",
						depth, step, rr.Rank, gotO, wantO)
				}
				var msgs int64
				for _, v := range gotO {
					msgs += v.Msgs
				}
				if msgs == 0 {
					t.Errorf("depth %d step %d rank %d: no nonblocking gathers recorded", depth, step, rr.Rank)
				}
			}
		}
	}
}
