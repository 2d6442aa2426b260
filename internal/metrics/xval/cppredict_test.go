package xval

import (
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
	"llama4d/internal/pp"
)

// PredictCPPerRank computes each rank's exact CP K/V-exchange traffic for one
// training step from the configuration and the data stream — the data-aware
// companion of predictRank's config-only CP lines, needed when a
// Config.ShardPlanner gives each sample its own layout (and so each rank its
// own share of every exchange). Per sample it rebuilds the trainer's layout
// (zigzag or ShardPlanner shards). Returned maps hold only the CP group's
// "<label>/allgather" and "<label>/allreduce" keys, with flat
// (non-hierarchical) collective accounting; indexed by rank id. The
// conformance test below asserts each entry against the measured per-rank
// breakdown with zero tolerance.
//
// Per exchange, K and V each move in one grouped all-gather whose per-rank
// volume is the rank's own row count times (cp−1); the backward reduction is
// two full-sequence all-reduces per layer.
func PredictCPPerRank(cl *core.Cluster, src data.Batcher, step int64) []map[string]metrics.OpVolume {
	cfg := cl.Cfg
	counts := pp.StageLayerCounts(cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced)
	nKVl := cfg.Model.NKVHeads / cfg.Topo.TP
	hd := cfg.Model.HeadDim()
	cols := int64(nKVl * hd)
	n := cfg.Topo.CP
	S := int64(cfg.Seq)
	replay := int64(0)
	if cfg.Recompute != model.RecomputeNone {
		// Both full and selective recomputation replay the forward attention,
		// re-running the K/V exchange once per layer.
		replay = 1
	}
	out := make([]map[string]metrics.OpVolume, len(cl.Ranks))
	for _, r := range cl.Ranks {
		m := map[string]metrics.OpVolume{}
		out[r.ID] = m
		if n <= 1 {
			continue
		}
		Lr := int64(0)
		for vs := 0; vs < cl.Sched.V; vs++ {
			Lr += int64(counts[cl.Sched.GlobalStage(r.Coord.PP, vs)])
		}
		fwdEx := Lr * (1 + replay) // exchanges per sample: forward + replay
		lbl := r.Groups.CP.Label
		lr := r.Groups.CP.LocalRank(r.ID)
		addV := func(key string, bytes, msgs int64) {
			v := m[key]
			v.Bytes += bytes
			v.Msgs += msgs
			m[key] = v
		}
		for _, s := range src.DPBatch(step, cfg.GBS, cfg.Topo.DP, r.Coord.DP) {
			var layout cp.Layout = cp.NewSharding(cfg.Seq, n)
			if cfg.ShardPlanner != nil {
				layout = cp.NewRaggedSharding(cfg.Seq, cfg.ShardPlanner(s, n))
			}
			rows := int64(len(layout.LocalPositions(lr)))
			addV(lbl+"/allgather", allGatherBytes(rows*cols, int64(n))*2*fwdEx, 2*fwdEx)
			addV(lbl+"/allreduce", allReduceBytes(S*cols, int64(n))*2*Lr, 2*Lr)
		}
	}
	return out
}

// TestCPSampleTrafficExact is the data-aware half of the CP exchange
// conformance: with a shard planner every sample gets its own layout, so the
// config-only predictor cannot price each rank's share of the exchange.
// PredictCPPerRank rebuilds the trainer's per-sample layouts from the data
// stream; every measured CP-exchange key must equal it exactly, per rank, per
// step, for the zigzag and the planned ragged layouts and under
// recomputation's replayed exchange.
func TestCPSampleTrafficExact(t *testing.T) {
	cases := []struct {
		name    string
		rec     model.RecomputeMode
		planner bool
	}{
		{name: "allgather"},
		{name: "allgather_full", rec: model.RecomputeFull},
		{name: "allgather_planner", planner: true},
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
			}
			if c.planner {
				cfg.ShardPlanner = func(s *model.Sample, n int) [][]int {
					return balance.PlanShards(attention.DocStarts(s.DocIDs), cfg.Seq, n)
				}
			}
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

			for step, rep := range reps {
				want := PredictCPPerRank(cl, gen, int64(step))
				for _, rr := range rep.Ranks {
					lbl := cl.Ranks[rr.Rank].Groups.CP.Label
					keys := map[string]bool{lbl + "/allgather": true, lbl + "/allreduce": true}
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
				}
			}
		})
	}
}
