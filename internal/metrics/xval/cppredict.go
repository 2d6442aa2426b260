package xval

import (
	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

// PredictCPPerRank computes each rank's exact CP K/V-exchange traffic for one
// training step from the configuration and the data stream — the data-aware
// companion of predictRank's config-only CP lines, needed when Config.UseDocMask
// makes the adaptive strategy's per-document routing (and therefore every
// byte count) sample-dependent. Per sample it rebuilds the trainer's exact
// decisions: the same layout (zigzag or ShardPlanner shards), the same
// cp.PlanFor plan, the same cp.KV circulation schedule. Returned maps
// hold only the exchange keys — "cp.ring/send", "cp.ring/recv", and the CP
// group's "<label>/allgather" and "<label>/allreduce" — with flat (non-
// hierarchical) collective accounting; indexed by rank id. The conformance
// test (cppredict_test.go) asserts each entry against the measured per-rank
// breakdown with zero tolerance.
//
// Per exchange, rank lr's ring schedule moves 2(cp−1) messages each way (a K
// and a V block per hop): it sends its own packed block plus the cp−2 blocks
// it relays (owners lr−1 … lr−(cp−2), ring order), and receives every other
// rank's block — so bytes follow the per-owner ring-routed row counts, which
// the plan's Split over the layout determines. All-gather documents move in
// one grouped collective whose per-rank volume is the rank's own packed
// contribution times (cp−1). The backward reduction is strategy-independent:
// two full-sequence all-reduces per layer.
func PredictCPPerRank(cl *core.Cluster, src data.Batcher, step int64) []map[string]metrics.OpVolume {
	cfg := cl.Cfg
	counts := pp.StageLayerCounts(cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced)
	nHl := cfg.Model.NHeads / cfg.Topo.TP
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
		ranks := r.Groups.CP.Ranks()
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
			plan := cp.PlanFor(cfg.CPStrategy, cfg.CPCostModel(), ranks, cfg.Seq,
				s.DocIDs, cfg.UseDocMask, nHl, nKVl, hd)
			ringRows := make([]int64, n)
			agRows := make([]int64, n)
			for o := 0; o < n; o++ {
				ri, ai := plan.Split(layout.LocalPositions(o))
				ringRows[o], agRows[o] = int64(len(ri)), int64(len(ai))
			}
			if plan.HasRing() {
				var sendRows, recvRows int64
				for t := 0; t <= n-2; t++ {
					sendRows += ringRows[(lr-t+n)%n]
				}
				for t := 1; t <= n-1; t++ {
					recvRows += ringRows[(lr-t+n)%n]
				}
				msgs := int64(2 * (n - 1))
				addV("cp.ring/send", 2*4*cols*sendRows*fwdEx, msgs*fwdEx)
				addV("cp.ring/recv", 2*4*cols*recvRows*fwdEx, msgs*fwdEx)
			}
			if plan.HasAllGather() {
				addV(lbl+"/allgather", allGatherBytes(agRows[lr]*cols, int64(n))*2*fwdEx, 2*fwdEx)
			}
			addV(lbl+"/allreduce", allReduceBytes(S*cols, int64(n))*2*Lr, 2*Lr)
		}
	}
	return out
}
