package xval

import (
	"math"
	"reflect"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/balance"
	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// toyCPCost returns a cost model whose Fig 13 crossover falls inside toy
// document lengths: compute is made so slow every ring transfer hides
// (exposed time 0), the link so slow the all-gather's byte term dominates,
// and the launch tax sized so ring wins documents longer than ~10 tokens —
// so a 32-token sample with ~8-token average documents genuinely mixes the
// two routes.
func toyCPCost() *cost.Model {
	m := cost.Default()
	m.AttnMFU = 1e-12
	m.KernelLaunchUs = 800
	m.Cluster.Net.NVLinkGBs = 1e-4
	m.Cluster.Net.RoCEGBs = 1e-4
	m.Cluster.Net.NVLinkLatencyUs = 0
	m.Cluster.Net.RoCELatencyUs = 0
	return &m
}

// TestCPSampleTrafficExact is the data-aware half of the CP exchange
// conformance: with a document mask the adaptive strategy's routing — and
// therefore every exchange byte — depends on each sample's document mix, so
// the config-only predictor cannot price it. PredictCPPerRank rebuilds the
// trainer's per-sample plans from the data stream; every measured CP-exchange
// key must equal it exactly, per rank, per step, for all three strategies,
// with and without planned ragged shards. The ring subset must additionally
// appear in the overlapped breakdown unchanged (every ring transfer is
// handle-based), and the strategies must not move the training trajectory by
// a single bit.
func TestCPSampleTrafficExact(t *testing.T) {
	cases := []struct {
		name      string
		strat     cp.Strategy
		rec       model.RecomputeMode
		cpCost    *cost.Model
		planner   bool
		wantMixed bool // at least one sample must route documents both ways
	}{
		{name: "allgather", strat: cp.StrategyAllGather},
		{name: "ring", strat: cp.StrategyRing},
		{name: "ring_selective", strat: cp.StrategyRing, rec: model.RecomputeSelective},
		{name: "adaptive_mixed", strat: cp.StrategyAdaptive, cpCost: toyCPCost(), wantMixed: true},
		{name: "adaptive_mixed_full", strat: cp.StrategyAdaptive, rec: model.RecomputeFull, cpCost: toyCPCost(), wantMixed: true},
		{name: "adaptive_mixed_planner", strat: cp.StrategyAdaptive, cpCost: toyCPCost(), planner: true, wantMixed: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.Config{
				Model: sweepModel(),
				Topo:  core.Topology{TP: 1, CP: 4, PP: 1, DP: 2},
				V:     1, NMB: 2, NC: 2,
				ZeRO:       fsdp.ZeRO1,
				Recompute:  c.rec,
				Seq:        32,
				GBS:        4,
				LR:         0.01,
				Seed:       42,
				UseDocMask: true,
				CPStrategy: c.strat,
				CPCost:     c.cpCost,
			}
			if c.planner {
				cfg.ShardPlanner = func(s *model.Sample, n int) [][]int {
					return balance.PlanShards(attention.DocStarts(s.DocIDs), cfg.Seq, n)
				}
			}
			run := func(cfg core.Config) (*core.Cluster, []float64, []*metrics.StepReport, *data.Generator) {
				cl, err := core.NewCluster(cfg)
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				reg := metrics.NewRegistry(cfg.Topo.World())
				cl.Attach(reg)
				gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 8, Seed: 7}
				var losses []float64
				var reps []*metrics.StepReport
				for step := int64(0); step < 2; step++ {
					reg.BeginStep(step)
					losses = append(losses, cl.Step(gen, step))
					reps = append(reps, reg.EndStep())
				}
				return cl, losses, reps, gen
			}
			cl, losses, reps, gen := run(cfg)

			for step, rep := range reps {
				want := PredictCPPerRank(cl, gen, int64(step))
				for _, rr := range rep.Ranks {
					lbl := cl.Ranks[rr.Rank].Groups.CP.Label
					keys := map[string]bool{
						"cp.ring/send": true, "cp.ring/recv": true,
						lbl + "/allgather": true, lbl + "/allreduce": true,
					}
					got := map[string]metrics.OpVolume{}
					for k, v := range rr.Comm {
						if keys[k] {
							got[k] = v
						}
					}
					if !reflect.DeepEqual(got, want[rr.Rank]) {
						t.Errorf("step %d rank %d: measured CP traffic %+v != predicted %+v",
							step, rr.Rank, got, want[rr.Rank])
					}
					for _, k := range []string{"cp.ring/send", "cp.ring/recv"} {
						if rr.Overlapped[k] != rr.Comm[k] {
							t.Errorf("step %d rank %d %s: overlapped %+v != issued %+v (ring must be fully handle-based)",
								step, rr.Rank, k, rr.Overlapped[k], rr.Comm[k])
						}
					}
				}
				if c.wantMixed {
					mixed := false
					for dp := 0; dp < cfg.Topo.DP; dp++ {
						for _, s := range gen.DPBatch(int64(step), cfg.GBS, cfg.Topo.DP, dp) {
							p := cp.PlanFor(cfg.CPStrategy, cfg.CPCostModel(), cl.Ranks[0].Groups.CP.Ranks(),
								cfg.Seq, s.DocIDs, true, cfg.Model.NHeads, cfg.Model.NKVHeads, cfg.Model.HeadDim())
							if p.HasRing() && p.HasAllGather() {
								mixed = true
							}
						}
					}
					if !mixed {
						t.Fatalf("step %d: no sample mixed ring and all-gather documents — the toy cost model's crossover missed the document-length distribution", step)
					}
				}
			}

			// Bitwise contract: the strategy must not move losses or weights.
			base := cfg
			base.CPStrategy = cp.StrategyAllGather
			baseCl, baseLosses, _, _ := run(base)
			for step := range losses {
				if math.Float64bits(losses[step]) != math.Float64bits(baseLosses[step]) {
					t.Errorf("step %d: %v loss %v != all-gather loss %v (not bitwise equal)",
						step, c.strat, losses[step], baseLosses[step])
				}
			}
			assertClustersBitwiseEqual(t, baseCl, cl, c.name+" final weights")
		})
	}
}

// TestCPExchangePriceOrdering pins the Fig 13 ordering of the shared cost
// model on three document-length corpora (toy cost, so the crossover sits
// near 10-token documents): priced per document over one global batch, ring
// is cheaper than all-gather on full-sequence documents, all-gather cheaper
// than ring on 4-token ones, and the adaptive per-document minimum is never
// above the better pure strategy — strictly below both on the mixed corpus,
// where at least one sample must route documents both ways.
func TestCPExchangePriceOrdering(t *testing.T) {
	const seq, gbs = 64, 4
	m := toyCPCost()
	mc := sweepModel()
	qh, kvh, hd := mc.NHeads, mc.NKVHeads, mc.HeadDim()
	ranks := []int{0, 1, 2, 3}
	for _, tc := range []struct {
		name   string
		avgDoc int
		long   float64
	}{
		{"short", 4, 0},
		{"mixed", 8, 0.25},
		{"long", 4 * seq, 0}, // clipped: one full-sequence document
	} {
		gen := &data.Generator{Vocab: mc.Vocab, Seq: seq, Seed: 5, AvgDocLen: tc.avgDoc, LongDocFrac: tc.long}
		var ag, ring, adaptive float64
		mixed := false
		for _, s := range gen.GlobalBatch(0, gbs) {
			p := cp.PlanFor(cp.StrategyAdaptive, *m, ranks, seq, s.DocIDs, true, qh, kvh, hd)
			mixed = mixed || (p.HasRing() && p.HasAllGather())
			for d := range p.DocStarts {
				n := p.DocEnd(d) - p.DocStarts[d]
				a, r := m.CPAllGatherTime(ranks, n, kvh, hd), m.CPRingTime(ranks, n, qh, kvh, hd)
				ag, ring, adaptive = ag+a, ring+r, adaptive+math.Min(a, r)
			}
		}
		best := math.Min(ag, ring)
		if tc.name == "long" && ring >= ag {
			t.Errorf("long docs: ring %gs not below all-gather %gs", ring, ag)
		}
		if tc.name == "short" && ag >= ring {
			t.Errorf("short docs: all-gather %gs not below ring %gs", ag, ring)
		}
		if adaptive > best {
			t.Errorf("%s: adaptive %gs above best pure strategy %gs", tc.name, adaptive, best)
		}
		if tc.name == "mixed" && (adaptive >= best || !mixed) {
			t.Errorf("mixed docs: adaptive %gs not strictly below best pure %gs (some sample routed both ways: %v)", adaptive, best, mixed)
		}
	}
}
