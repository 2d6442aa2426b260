package balance_test

// The planner's contract on a live cluster: the same 8-rank 4D step (cp=2
// pp=2 dp=2, document-masked) over three document-length distributions, once
// with the sequential assignment on even zigzag CP shards and once under the
// census-driven planner (effective-FLOP LPT packing, schedule-simulated
// micro-batch ordering, per-document ragged CP shards).
//
//   - G1 (placement is invisible): re-assigning samples to different
//     (DP rank, micro-batch) slots with the sharding unchanged leaves every
//     per-(sample, CP rank) loss Float64bits-identical, and the canonical
//     tag-ordered loss sum identical.
//   - G2 (ragged shards regroup, nothing more): the planned-shard arm's
//     per-rank allowed-pair census sums to the same world total as the
//     zigzag arm (the mask doesn't care who computes a row), and its global
//     loss agrees with the unbalanced arm to 1e-9 relative — the only
//     difference is the float64 regrouping of cross-rank sums.
//   - The planner reduces (never increases) the measured max/mean
//     effective-FLOP ratio and the modeled idle fraction, strictly on the
//     heavy-tail mix.
//   - The measured imbalance summary equals the closed-form prediction
//     (xval.PredictAttentionPerRank) exactly, on both arms.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/balance"
	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/metrics/xval"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

const balanceSeq = 128

func balanceConfig(planned bool) core.Config {
	cfg := core.Config{
		Model: model.Config{Vocab: 64, Dim: 32, Hidden: 64, NHeads: 4, NKVHeads: 2,
			NLayers: 4, MaxSeq: balanceSeq, RopeBase: 10000},
		Topo: core.Topology{TP: 1, CP: 2, PP: 2, DP: 2},
		V:    1, NMB: 2, NC: 2,
		ZeRO: fsdp.ZeRO1, Seq: balanceSeq, GBS: 8, LR: 2e-3,
		UseDocMask: true, Seed: 11,
	}
	if planned {
		cfg.ShardPlanner = func(s *model.Sample, cpSize int) [][]int {
			return balance.PlanShards(attention.DocStarts(s.DocIDs), balanceSeq, cpSize)
		}
	}
	return cfg
}

type lossKey struct {
	tag     int64
	cpLocal int
}

// runBalanceStep builds a fresh cluster for cfg, runs one measured step of
// src, and returns the cluster, the step report and every head rank's
// per-(sample tag, CP-local rank) loss bits.
func runBalanceStep(t *testing.T, cfg core.Config, src data.Batcher) (*core.Cluster, *metrics.StepReport, map[lossKey]uint64) {
	t.Helper()
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry(cfg.Topo.World())
	cl.Attach(reg)
	var mu sync.Mutex
	losses := make(map[lossKey]uint64)
	for _, r := range cl.Ranks {
		cpLocal := r.Groups.CP.LocalRank(r.ID)
		r.Exec.OnLoss = func(tag int64, loss float64) {
			mu.Lock()
			losses[lossKey{tag, cpLocal}] = math.Float64bits(loss)
			mu.Unlock()
		}
	}
	reg.BeginStep(0)
	cl.Step(src, 0)
	return cl, reg.EndStep(), losses
}

// canonicalLossSum folds the per-(tag, rank) losses in tag-major order — the
// placement-independent reference ordering for cross-arm comparison.
func canonicalLossSum(losses map[lossKey]uint64) float64 {
	keys := make([]lossKey, 0, len(losses))
	for k := range losses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tag != keys[j].tag {
			return keys[i].tag < keys[j].tag
		}
		return keys[i].cpLocal < keys[j].cpLocal
	})
	var sum float64
	for _, k := range keys {
		sum += math.Float64frombits(losses[k])
	}
	return sum
}

// weightedLossMean reconstructs the global token-weighted mean loss in pure
// float64 from the per-(tag, CP rank) local means: each rank's mean is
// re-weighted by its shard's valid-target count under the given layout. This
// sidesteps the float32 rounding of the trainer's loss all-reduce, so two
// layouts of the same batch must agree to float64 regrouping precision.
func weightedLossMean(losses map[lossKey]uint64, src *data.PackedSet, shards func(s *model.Sample) [][]int) float64 {
	valid := func(targets []int, pos []int) int {
		n := 0
		if pos == nil {
			for _, t := range targets {
				if t >= 0 {
					n++
				}
			}
			return n
		}
		for _, p := range pos {
			if targets[p] >= 0 {
				n++
			}
		}
		return n
	}
	var sum float64
	for tag, s := range src.Samples {
		total := valid(s.Targets, nil)
		var sampleSum float64
		for cpLocal, pos := range shards(s) {
			bits, ok := losses[lossKey{int64(tag), cpLocal}]
			if !ok {
				panic(fmt.Sprintf("no loss recorded for sample %d cp-rank %d", tag, cpLocal))
			}
			sampleSum += math.Float64frombits(bits) * float64(valid(s.Targets, pos))
		}
		sum += sampleSum / float64(total)
	}
	return sum / float64(len(src.Samples))
}

func allowedPairSum(rep *metrics.StepReport) int64 {
	var sum int64
	for _, rr := range rep.Ranks {
		sum += rr.Attn.AllowedPairs
	}
	return sum
}

// modeledIdleFrac runs each DP replica's per-micro-batch census costs
// through the pipeline schedule's timing model (the same pp.Costs hook the
// planner's OrderMicrobatches uses; costs in units of the mean micro-batch,
// P2P at the planning latency) and returns the fraction of the modeled step
// an average pipeline rank spends idle. The step ends when the slowest
// replica finishes — the gradient all-reduce joins them — so both the
// pipeline bubble and the DP straggler effect count. Unlike wall-clock idle
// time, which goroutine scheduling dominates at this size, this is
// deterministic in the packing.
func modeledIdleFrac(t *testing.T, sched *pp.Schedule, src *data.PackedSet, cfg core.Config) float64 {
	t.Helper()
	ndp, nmb := cfg.Topo.DP, cfg.NMB
	var unit float64
	for _, c := range src.Costs {
		unit += float64(c)
	}
	unit /= float64(ndp * nmb)
	var span float64
	tls := make([]*pp.Timeline, ndp)
	for r := 0; r < ndp; r++ {
		mbCost := make([]float64, nmb)
		for m, c := range src.Assign.MBCosts(r, src.Costs) {
			mbCost[m] = float64(c) / unit
		}
		tl, err := sched.Simulate(pp.Costs{
			FwdMB: func(_, mb int) float64 { return mbCost[mb] },
			BwdMB: func(_, mb int) float64 { return 2 * mbCost[mb] },
			P2P:   0.1,
		})
		if err != nil {
			t.Fatalf("schedule simulation: %v", err)
		}
		tls[r] = tl
		if tl.Makespan > span {
			span = tl.Makespan
		}
	}
	var idle, n float64
	for _, tl := range tls {
		for _, busy := range tl.Busy {
			idle += span - busy
			n++
		}
	}
	return idle / (span * n)
}

func TestPlannerPlacementInvariantsOnLiveCluster(t *testing.T) {
	prevR, prevC := attention.SetTiling(8, 8)
	defer attention.SetTiling(prevR, prevC)
	for _, dist := range []string{"uniform", "lognormal", "heavytail"} {
		t.Run(dist, func(t *testing.T) {
			uCfg, pCfg := balanceConfig(false), balanceConfig(true)
			uCl, err := core.NewCluster(uCfg)
			if err != nil {
				t.Fatal(err)
			}
			pack := func(balanced bool) *data.PackedSet {
				return data.BuildPacked(data.PackConfig{
					Dist: dist, Seq: uCfg.Seq, GBS: uCfg.GBS, NDP: uCfg.Topo.DP,
					NMB: uCfg.NMB, Vocab: uCfg.Model.Vocab, Seed: 5,
					Balanced: balanced, Sched: uCl.Sched, P2P: 0.1,
				})
			}
			uSrc, bSrc := pack(false), pack(true)

			// G1: the balanced assignment on the SAME even zigzag shards must
			// leave every per-(sample, CP rank) loss bitwise unchanged —
			// re-placing a sample never re-computes it differently.
			_, uRep, uLoss := runBalanceStep(t, uCfg, uSrc)
			_, _, aLoss := runBalanceStep(t, uCfg, bSrc)
			if len(uLoss) == 0 || len(uLoss) != len(aLoss) {
				t.Fatalf("loss census size %d vs %d", len(uLoss), len(aLoss))
			}
			for k, bits := range uLoss {
				if got, ok := aLoss[k]; !ok || got != bits {
					t.Fatalf("G1: sample %d cp-rank %d: loss %x under sequential, %x under balanced assignment (ok=%v)",
						k.tag, k.cpLocal, bits, got, ok)
				}
			}
			uSum, aSum := canonicalLossSum(uLoss), canonicalLossSum(aLoss)
			if math.Float64bits(uSum) != math.Float64bits(aSum) {
				t.Fatalf("G1: canonical loss sums diverge: %v vs %v", uSum, aSum)
			}

			// G2: the fully planned arm (balanced assignment + per-document
			// ragged shards) conserves the allowed-pair census and reproduces
			// the global step loss to regrouping precision. (Per-(tag, rank)
			// local means are NOT comparable here — the shards hold different
			// rows — but the token-weighted global mean is layout-invariant up
			// to float64 sum regrouping.)
			bCl, bRep, bLoss := runBalanceStep(t, pCfg, bSrc)
			if len(bLoss) != len(uLoss) {
				t.Fatalf("G2: loss census size %d vs %d", len(bLoss), len(uLoss))
			}
			if up, bp := allowedPairSum(uRep), allowedPairSum(bRep); up != bp {
				t.Fatalf("G2: allowed-pair census not conserved across shard layouts: %d vs %d", up, bp)
			}
			zigSh := cp.NewSharding(uCfg.Seq, uCfg.Topo.CP)
			zigPos := make([][]int, uCfg.Topo.CP)
			for lr := range zigPos {
				zigPos[lr] = zigSh.LocalPositions(lr)
			}
			uMean := weightedLossMean(uLoss, uSrc, func(*model.Sample) [][]int { return zigPos })
			bMean := weightedLossMean(bLoss, bSrc, func(s *model.Sample) [][]int {
				return balance.PlanShards(attention.DocStarts(s.DocIDs), balanceSeq, uCfg.Topo.CP)
			})
			if rel := math.Abs(bMean-uMean) / math.Abs(uMean); rel > 1e-9 {
				t.Fatalf("G2: planned-shard mean loss %v off unbalanced %v by %.2e relative (>1e-9)", bMean, uMean, rel)
			}

			// Skew: the planner must not increase the measured max/mean
			// ratio, and must strictly reduce it on the heavy-tail mix.
			uRatio, bRatio := uRep.Imbalance.MaxMeanRatio, bRep.Imbalance.MaxMeanRatio
			if bRatio > uRatio {
				t.Fatalf("balanced ratio %.4f above unbalanced %.4f", bRatio, uRatio)
			}
			if dist == "heavytail" && bRatio >= uRatio {
				t.Fatalf("heavy-tail: balanced ratio %.4f not strictly below %.4f", bRatio, uRatio)
			}
			for _, arm := range []struct {
				name string
				cl   *core.Cluster
				src  data.Batcher
				rep  *metrics.StepReport
			}{{"unbalanced", uCl, uSrc, uRep}, {"balanced", bCl, bSrc, bRep}} {
				want := xval.PredictImbalance(xval.PredictAttentionPerRank(arm.cl, arm.src, 0))
				if !reflect.DeepEqual(arm.rep.Imbalance, want) {
					t.Fatalf("%s: measured imbalance %+v != modeled %+v", arm.name, arm.rep.Imbalance, want)
				}
			}

			// The planned packing must not worsen the modeled per-rank idle
			// fraction (pipeline bubble + DP straggler under the schedule
			// timing model), and must strictly improve it on heavy-tail.
			uModel := modeledIdleFrac(t, uCl.Sched, uSrc, uCfg)
			bModel := modeledIdleFrac(t, bCl.Sched, bSrc, pCfg)
			if bModel > uModel {
				t.Fatalf("balanced modeled idle frac %.4f above unbalanced %.4f", bModel, uModel)
			}
			if dist == "heavytail" && bModel >= uModel {
				t.Fatalf("heavy-tail: balanced modeled idle frac %.4f not strictly below %.4f", bModel, uModel)
			}
		})
	}
}
