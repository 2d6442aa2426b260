package xval

import (
	"reflect"
	"testing"

	"llama4d/internal/core"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

// TestPredictConfigMatchesLiveCluster pins the cluster-free prediction path
// against the live-cluster one: for every sweep configuration and both step
// regimes, PredictConfig must reproduce Predict byte-for-byte — same comm
// maps, same overlap subsets, same tier splits, same FLOP total. The two
// paths share predictRank, so this test guards the view derivation
// (configRankView, cacheLabel, ConfigShardLens) that the planner relies on
// without ever constructing ranks.
func TestPredictConfigMatchesLiveCluster(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			cl, _ := runMeasuredSteps(t, sc)
			for _, steady := range []bool{false, true} {
				live := Predict(cl, steady)
				free := PredictConfig(cfg, steady)
				if !reflect.DeepEqual(live, free) {
					t.Errorf("steady=%v: PredictConfig diverges from Predict", steady)
					for r := range live.Comm {
						if !reflect.DeepEqual(live.Comm[r], free.Comm[r]) {
							t.Errorf("rank %d comm: live %+v, config %+v", r, live.Comm[r], free.Comm[r])
						}
						if !reflect.DeepEqual(live.Overlapped[r], free.Overlapped[r]) {
							t.Errorf("rank %d overlapped: live %+v, config %+v", r, live.Overlapped[r], free.Overlapped[r])
						}
						if live.IntraBytes[r] != free.IntraBytes[r] || live.InterBytes[r] != free.InterBytes[r] {
							t.Errorf("rank %d tiers: live (%d,%d), config (%d,%d)", r,
								live.IntraBytes[r], live.InterBytes[r], free.IntraBytes[r], free.InterBytes[r])
						}
					}
					if live.FLOPs != free.FLOPs {
						t.Errorf("FLOPs: live %d, config %d", live.FLOPs, free.FLOPs)
					}
				}
				for _, r := range cl.Ranks {
					rp := PredictRank(cfg, r.ID, steady)
					if !reflect.DeepEqual(rp.Comm, live.Comm[r.ID]) {
						t.Errorf("steady=%v PredictRank(%d) comm diverges: %+v vs %+v",
							steady, r.ID, rp.Comm, live.Comm[r.ID])
					}
				}
			}
		})
	}
}

// TestConfigShardLensMatchesLiveShards asserts the closed-form FSDP unit
// shard lengths equal what the constructed cluster actually allocated, for
// every rank of every sweep case.
func TestConfigShardLensMatchesLiveShards(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cl, _ := runMeasuredSteps(t, sc)
			cfg := cl.Cfg
			counts := pp.StageLayerCounts(cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced)
			for _, r := range cl.Ranks {
				want := r.Shard.ShardLens()
				got := ConfigShardLens(cfg, counts, r.Coord.PP)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d (pp=%d): config shard lens %v, live %v",
						r.ID, r.Coord.PP, got, want)
				}
			}
		})
	}
}

// predictRankPerOp is the per-op form of predictRank, kept frozen as its
// oracle: it books every op of the rank's schedule once, in issue order,
// and every FSDP unit on its own, where predictRank books each virtual stage
// once per direction with NMB× the messages and each run of equal units
// once.
func predictRankPerOp(cfg core.Config, sched *pp.Schedule, counts []int, rv rankView, steadyState bool) *RankPrediction {
	topo := cfg.Topo
	lastG := sched.Stages() - 1

	mbs := int64(cfg.MBS())
	R := int64(cfg.Seq / topo.CP) // local rows per sample under CP
	S := int64(cfg.Seq)           // K/V rows after the CP all-gather
	dim := int64(cfg.Model.Dim)
	tp := int64(topo.TP)
	cpN := int64(topo.CP)
	nHl := int64(cfg.Model.NHeads / topo.TP)
	nKVl := int64(cfg.Model.NKVHeads / topo.TP)
	hd := int64(cfg.Model.HeadDim())
	Hl := int64(cfg.Model.Hidden / topo.TP)
	vl := int64(cfg.Model.Vocab / topo.TP)
	fs := int64(topo.DP * topo.CP) // FSDP group spans DP×CP (§4)

	// Per-sample matmul FLOPs of one transformer block on one rank, local
	// shard dimensions. The attention-path share (Wq/Wk/Wv, the per-head
	// attention kernel, Wo) is what selective recomputation replays.
	attnPath := 2*R*dim*(nHl*hd) + 2*2*R*dim*(nKVl*hd) + 4*nHl*R*S*hd + 2*R*(nHl*hd)*dim
	blkFwd := attnPath + 6*R*dim*Hl
	headFwd := 2 * R * dim * vl
	var replay int64
	switch cfg.Recompute {
	case model.RecomputeFull:
		replay = blkFwd
	case model.RecomputeSelective:
		replay = attnPath
	}

	// With a host topology, blocking bulk collectives run hierarchically and
	// meter under tier-split keys; nonblocking (overlap-engine) issues and
	// the non-hierarchical ops keep flat keys.
	hier := cfg.HostSize > 0

	rp := &RankPrediction{
		Comm:       make(map[string]metrics.OpVolume),
		Overlapped: make(map[string]metrics.OpVolume),
	}
	addTo := func(dst map[string]metrics.OpVolume, group, op string, bytesPerMsg, msgs int64) {
		v := dst[group+"/"+op]
		v.Bytes += bytesPerMsg * msgs
		v.Msgs += msgs
		dst[group+"/"+op] = v
	}
	add := func(group, op string, bytesPerMsg, msgs int64) {
		addTo(rp.Comm, group, op, bytesPerMsg, msgs)
	}
	// spans reports whether a rank set crosses a host boundary.
	spans := func(ranks []int) bool {
		if cfg.HostSize <= 0 {
			return false
		}
		h0 := ranks[0] / cfg.HostSize
		for _, r := range ranks[1:] {
			if r/cfg.HostSize != h0 {
				return true
			}
		}
		return false
	}
	// tier books flat-ring bytes wholly onto the group's side of the host
	// boundary.
	tier := func(ranks []int, bytes int64) {
		if spans(ranks) {
			rp.InterBytes += bytes
		} else {
			rp.IntraBytes += bytes
		}
	}
	// addF predicts one flat-keyed (non-hierarchical or nonblocking)
	// collective already reduced to its per-issue byte volume, classifying
	// the tier by the group's host span.
	addF := func(dst map[string]metrics.OpVolume, gv *groupView, op string, bytesPerMsg, msgs int64) {
		addTo(rp.Comm, gv.label, op, bytesPerMsg, msgs)
		if dst != nil {
			addTo(dst, gv.label, op, bytesPerMsg, msgs)
		}
		tier(gv.ranks, bytesPerMsg*msgs)
	}
	// addC predicts one blocking bulk collective (allgather / reducescatter
	// / allreduce) of elems per-rank elements: flat key and ring volume
	// normally, ".intra"/".inter" tier keys with the two-level volumes when
	// the group's host layout is tiered.
	roles := make(map[string]commRole, 4)
	addC := func(gv *groupView, op string, elems, msgs int64) {
		ro, ok := roles[gv.label]
		if !ok {
			hs := 0
			if hier {
				hs = cfg.HostSize
			}
			ro = roleOf(gv.ranks, rv.id, hs)
			roles[gv.label] = ro
		}
		if !(hier && ro.tiered) {
			addF(nil, gv, op, flatCollBytes(op, elems, ro.n), msgs)
			return
		}
		intra, inter := tierBytes(op, elems, ro)
		add(gv.label, op+".intra", intra, msgs)
		rp.IntraBytes += intra * msgs
		if ro.leader {
			add(gv.label, op+".inter", inter, msgs)
			rp.InterBytes += inter * msgs
		}
	}
	// FSDP state is partitioned into per-unit shards (embed, blocks, head);
	// each unit runs its own collectives, so volumes — including the
	// per-unit truncating division — are summed per unit.
	unitLens := rv.shardLens
	p2p := 4 * mbs * R * dim // one packed micro-batch activation message
	// Pipeline P2P: pre-posted recvs / async sends when Overlap.P2P > 0;
	// classified by the peer's host either way.
	addP2P := func(op string, peer int) {
		addTo(rp.Comm, "p2p", op, p2p, 1)
		if cfg.Overlap.P2P > 0 {
			addTo(rp.Overlapped, "p2p", op, p2p, 1)
		}
		tier([]int{rv.id, peer}, p2p)
		if spans([]int{rv.id, peer}) {
			rp.P2PInterBytes += p2p
		} else {
			rp.P2PIntraBytes += p2p
		}
	}
	ppPeer := func(g int) int { return rv.ppRanks[g%len(rv.ppRanks)] }

	lr := rv.pp
	for _, op := range sched.Ranks[lr] {
		g := sched.GlobalStage(lr, op.Stage)
		L := int64(counts[g])
		switch op.Kind {
		case pp.Fwd:
			if tp > 1 {
				// Wo and W2 row-parallel forward all-reduces (§5.2's
				// "four communications per layer", forward half).
				addC(&rv.tp, "allreduce", R*dim, 2*L*mbs)
				if g == 0 {
					addC(&rv.tp, "allreduce", R*dim, mbs) // vocab-parallel embed
				}
				if g == lastG {
					// Distributed softmax: max, exp-sum, target-prob.
					addF(nil, &rv.tp, "allreducemax", allReduceBytes(R, tp), mbs)
					addC(&rv.tp, "allreduce", R, 2*mbs)
				}
			}
			if cpN > 1 {
				addC(&rv.cp, "allgather", R*nKVl*hd, 2*L*mbs) // gather K and V
			}
			if g > 0 {
				addP2P("recv", ppPeer(g-1))
			}
			if g < lastG {
				addP2P("send", ppPeer(g+1))
			}
			rp.FLOPs += mbs * L * blkFwd
			if g == lastG {
				rp.FLOPs += mbs * headFwd
			}

		case pp.Bwd:
			if tp > 1 {
				// Wq/Wk/Wv and W1/W3 column-parallel dx all-reduces.
				addC(&rv.tp, "allreduce", R*dim, 5*L*mbs)
				if g == lastG {
					addC(&rv.tp, "allreduce", R*dim, mbs) // head dn
				}
			}
			if cpN > 1 {
				addC(&rv.cp, "allreduce", S*nKVl*hd, 2*L*mbs) // reduce dK, dV
			}
			// Recompute replay re-issues the forward's collectives.
			switch cfg.Recompute {
			case model.RecomputeFull:
				if tp > 1 {
					addC(&rv.tp, "allreduce", R*dim, 2*L*mbs)
				}
				if cpN > 1 {
					addC(&rv.cp, "allgather", R*nKVl*hd, 2*L*mbs)
				}
			case model.RecomputeSelective:
				if tp > 1 {
					addC(&rv.tp, "allreduce", R*dim, L*mbs)
				}
				if cpN > 1 {
					addC(&rv.cp, "allgather", R*nKVl*hd, 2*L*mbs)
				}
			}
			if g < lastG {
				addP2P("recv", ppPeer(g+1))
			}
			if g > 0 {
				addP2P("send", ppPeer(g-1))
			}
			if cfg.ZeRO == fsdp.ZeRO2 {
				// Per-backward gradient reduce-scatter, one per unit
				// (Fig 4c); overlapped behind subsequent compute when
				// Overlap.Grads (nonblocking issues stay flat-keyed).
				for _, sl := range unitLens {
					if cfg.Overlap.Grads {
						addF(rp.Overlapped, &rv.fsdp, "reducescatter", reduceScatterBytes(int64(sl)*fs, fs), 1)
					} else {
						addC(&rv.fsdp, "reducescatter", int64(sl)*fs, 1)
					}
				}
			}
			rp.FLOPs += mbs * L * (2*blkFwd + replay)
			if g == lastG {
				rp.FLOPs += mbs * 2 * headFwd
			}
		}
	}

	// Step end, per unit: gradient reduce-scatter + parameter all-gather
	// (fsdp.Shard.Step) — always blocking; ZeRO-1 over an FSDP group of one
	// steps on its flat gradients and issues no reduce-scatter — plus
	// ZeRO-3's re-gather of released parameters at the start of every
	// steady-state step, which the prefetch engine issues nonblocking when
	// Overlap.Params > 0.
	for _, sl := range unitLens {
		if cfg.ZeRO != fsdp.ZeRO1 || fs > 1 {
			addC(&rv.fsdp, "reducescatter", int64(sl)*fs, 1)
		}
		addC(&rv.fsdp, "allgather", int64(sl), 1)
		if cfg.ZeRO == fsdp.ZeRO3 && steadyState {
			if cfg.Overlap.Params > 0 {
				addF(rp.Overlapped, &rv.fsdp, "allgather", allGatherBytes(int64(sl), fs), 1)
			} else {
				addC(&rv.fsdp, "allgather", int64(sl), 1)
			}
		}
	}
	// Loss aggregation: one world all-reduce of a single float per rank.
	addC(&rv.world, "allreduce", 1, 1)
	return rp
}

// TestPredictRankMatchesPerOpWalk pins the per-stage count against the
// per-op walk on schedules of every kind the shape admits — flexible with a
// ragged final round (nmb % nc ≠ 0), with nc < pp (all-forward-all-backward
// degenerate), with nc > pp, and the wave-ordered all-forward-all-backward —
// for every rank, both step regimes, and configurations that reach every
// branch (TP, CP, ZeRO-2/3 with and without overlap,
// both recompute modes, tiered and flat hosts): Comm, Overlapped, the tier
// split and FLOPs must be identical.
func TestPredictRankMatchesPerOpWalk(t *testing.T) {
	type shape struct{ pp, v, nmb, nc int }
	shapes := []shape{
		{2, 2, 5, 2}, // nmb % nc ≠ 0
		{4, 1, 6, 3}, // nc < pp
		{2, 2, 6, 4}, // nc > pp, ragged
		{2, 3, 4, 2}, // nc = pp, balanced ends
	}
	ovAll := core.OverlapConfig{Params: 2, Grads: true, P2P: 2}
	variants := []struct {
		name string
		tp   int
		cp   int
		dp   int
		zero fsdp.Mode
		rec  model.RecomputeMode
		host int
		ov   core.OverlapConfig
	}{
		{"tp2_cp2_host4_zero2", 2, 2, 1, fsdp.ZeRO2, model.RecomputeSelective, 4, core.OverlapConfig{}},
		{"tp2_dp2_host2_zero3_overlap", 2, 1, 2, fsdp.ZeRO3, model.RecomputeFull, 2, ovAll},
		{"cp2_dp2_zero2_overlap", 1, 2, 2, fsdp.ZeRO2, model.RecomputeFull, 3, ovAll},
		{"tp2_flat_zero1", 2, 1, 1, fsdp.ZeRO1, model.RecomputeNone, 0, core.OverlapConfig{P2P: 1}},
	}
	for _, sh := range shapes {
		for _, va := range variants {
			cfg := core.Config{
				Model: sweepModel(), Topo: core.Topology{TP: va.tp, CP: va.cp, PP: sh.pp, DP: va.dp},
				V: sh.v, NMB: sh.nmb, NC: sh.nc, ZeRO: va.zero, Recompute: va.rec, Balanced: true,
				HostSize: va.host, Overlap: va.ov,
				Seq: 16, GBS: 2 * sh.nmb * va.dp, LR: 0.01, Seed: 1,
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s %+v: %v", va.name, sh, err)
			}
			counts := pp.StageLayerCounts(cfg.Model.NLayers, sh.pp*sh.v, cfg.Balanced)
			all := allWorldRanks(cfg.Topo.World())
			for _, sched := range []*pp.Schedule{
				pp.NewFlexible(sh.pp, sh.v, sh.nmb, sh.nc),
				pp.NewAllFwdAllBwd(sh.pp, sh.v, sh.nmb),
			} {
				for id := range all {
					rv := configRankView(cfg, counts, all, id)
					for _, steady := range []bool{false, true} {
						got := predictRank(cfg, counts, rv, steady)
						want := predictRankPerOp(cfg, sched, counts, rv, steady)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s pp=%d v=%d nmb=%d %s rank %d steady=%v:\nper-stage %+v\nper-op    %+v",
								va.name, sh.pp, sh.v, sh.nmb, sched.Name, id, steady, got, want)
						}
					}
				}
			}
		}
	}
}
