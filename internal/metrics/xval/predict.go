package xval

import (
	"fmt"

	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

// This file is the cluster-free face of the predictor: everything Predict
// needs about a rank is captured in a rankView, and a view can be built
// either from a live core.Rank (Predict) or from the configuration alone
// (PredictConfig / PredictRank) — group memberships from the topology
// arithmetic, group labels by replaying the cluster cache's
// first-creation-wins rule, and FSDP unit shard lengths from the TP-sharded
// parameter shapes. The conformance sweep asserts both construction paths
// produce identical predictions, which is what lets the planner price
// configurations it never instantiates.

// groupView is the slice of process-group state the predictor reads: the
// member rank list (ascending global ids), the label the cluster's group
// cache gave the set, and the viewing rank's role in it under the
// configuration's host topology.
type groupView struct {
	label string
	ranks []int
	role  commRole
}

func newGroupView(label string, ranks []int, id, hostSize int) groupView {
	return groupView{label: label, ranks: ranks, role: roleOf(ranks, id, hostSize)}
}

// rankView is one rank's prediction inputs.
type rankView struct {
	id int
	pp int // pipeline-stage coordinate

	tp, cp, fsdp, world groupView
	ppRanks             []int // pipeline group, stage order

	shardLens []int // per-FSDP-unit flat shard lengths, unit order
}

// RankPrediction is the analytic per-step prediction for a single rank —
// the per-rank slice of Expected plus the host-tier byte split the planner
// ranks by.
type RankPrediction struct {
	// Comm and Overlapped match Expected.Comm[rank] / Expected.Overlapped[rank].
	Comm       map[string]metrics.OpVolume
	Overlapped map[string]metrics.OpVolume
	// FLOPs is the nominal matmul FLOP count this rank itself executes;
	// summed over ranks it equals Expected.FLOPs.
	FLOPs int64
	// IntraBytes/InterBytes split the rank's issued bytes into
	// NVLink-island traffic and cross-host traffic under Config.HostSize:
	// tiered collectives split by the ".intra"/".inter" meter formulas,
	// flat collectives land wholly on one side by the group's host span
	// (a flat ring over several hosts pays the cross-host link on every
	// hop), and pipeline P2P classifies by the peer's host. With
	// HostSize == 0 everything is intra.
	IntraBytes int64
	InterBytes int64
	// P2PIntraBytes/P2PInterBytes are the pipeline point-to-point subset of
	// the split above. The planner's near-tie ranking discriminates on
	// InterBytes − P2PInterBytes: P2P traffic is pre-posted/overlapped and
	// pairwise, while bulk collectives contend for the RoCE fabric.
	P2PIntraBytes int64
	P2PInterBytes int64
}

// predictRank computes one rank's exact step prediction from its view. It
// books each of the rank's virtual stages once per direction for all NMB
// micro-batches: pp.Schedule.Validate requires every (stage, mb) to run
// exactly once per direction on its owning rank and every count is an
// integer sum, so the prediction is the same for every valid schedule of the
// configuration's shape and needs no op list — only the interleaved
// placement g = vs·PP + rank (pp.Schedule.GlobalStage).
func predictRank(cfg core.Config, counts []int, rv rankView, steadyState bool) *RankPrediction {
	topo := cfg.Topo
	lastG := topo.PP*cfg.V - 1
	nmb := int64(cfg.NMB)

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

	rp := &RankPrediction{
		Comm:       make(map[string]metrics.OpVolume),
		Overlapped: make(map[string]metrics.OpVolume),
	}
	addTo := func(dst map[string]metrics.OpVolume, group, op string, bytesPerMsg, msgs int64) {
		k := group + "/" + op
		v := dst[k]
		v.Bytes += bytesPerMsg * msgs
		v.Msgs += msgs
		dst[k] = v
	}
	// cross reports whether two ranks sit on different hosts.
	cross := func(a, b int) bool { return cfg.HostSize > 0 && a/cfg.HostSize != b/cfg.HostSize }
	// tier books flat-ring bytes wholly onto one side of the host boundary.
	tier := func(inter bool, bytes int64) {
		if inter {
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
		tier(gv.role.H > 1, bytesPerMsg*msgs)
	}
	// addC predicts one blocking bulk collective (allgather / reducescatter
	// / allreduce) of elems per-rank elements: flat key and ring volume
	// normally, ".intra"/".inter" tier keys with the two-level volumes when
	// the group's host layout is tiered (with a host topology, blocking bulk
	// collectives run hierarchically; nonblocking overlap-engine issues and
	// the non-hierarchical ops keep flat keys).
	addC := func(gv *groupView, op string, elems, msgs int64) {
		ro := gv.role
		if !ro.tiered {
			addF(nil, gv, op, flatCollBytes(op, elems, ro.n), msgs)
			return
		}
		intra, inter := tierBytes(op, elems, ro)
		addTo(rp.Comm, gv.label, op+".intra", intra, msgs)
		rp.IntraBytes += intra * msgs
		if ro.leader {
			addTo(rp.Comm, gv.label, op+".inter", inter, msgs)
			rp.InterBytes += inter * msgs
		}
	}
	// FSDP state is partitioned into per-unit shards (embed, blocks, head);
	// each unit runs its own collectives, so volumes — including the
	// per-unit truncating division — are per unit, and a run of k units of
	// one length books as k messages of that length.
	type unitRun struct{ elems, k int64 }
	var units []unitRun
	for _, sl := range rv.shardLens {
		if u := len(units) - 1; u >= 0 && units[u].elems == int64(sl) {
			units[u].k++
		} else {
			units = append(units, unitRun{int64(sl), 1})
		}
	}
	p2p := 4 * mbs * R * dim // one packed micro-batch activation message
	// Pipeline P2P, nmb messages: pre-posted recvs / async sends when
	// Overlap.P2P > 0; classified by the peer's host either way.
	addP2P := func(op string, peer int) {
		addTo(rp.Comm, "p2p", op, p2p, nmb)
		if cfg.Overlap.P2P > 0 {
			addTo(rp.Overlapped, "p2p", op, p2p, nmb)
		}
		inter := cross(rv.id, peer)
		tier(inter, p2p*nmb)
		if inter {
			rp.P2PInterBytes += p2p * nmb
		} else {
			rp.P2PIntraBytes += p2p * nmb
		}
	}
	ppPeer := func(g int) int { return rv.ppRanks[g%len(rv.ppRanks)] }

	// CP exchange plan. A plan with a ring document replaces the forward K/V
	// all-gather with cp.KV's block circulation, metered under "cp.ring".
	// Without a document mask every sample is one causal document, so the
	// per-sample plan is config-derivable and this branch is exact;
	// per-document plans under UseDocMask are data-dependent —
	// the conformance test's PredictCPPerRank covers those from the sample
	// stream.
	cpRing := cpN > 1 && cp.PlanFor(cfg.CPStrategy, cfg.CPCostModel(), rv.cp.ranks, cfg.Seq,
		nil, false, int(nHl), int(nKVl), int(hd)).HasRing()
	ringNext, ringPrev := rv.id, rv.id
	if cpRing {
		lr := 0
		for i, r := range rv.cp.ranks {
			if r == rv.id {
				lr = i
			}
		}
		ringNext = rv.cp.ranks[(lr+1)%len(rv.cp.ranks)]
		ringPrev = rv.cp.ranks[(lr-1+len(rv.cp.ranks))%len(rv.cp.ranks)]
	}
	// cpGather predicts `ex` forward (or replayed) K/V exchanges. A ring
	// exchange circulates 2(cp−1) messages each way (a K and a V block per
	// hop) of one zigzag-even block; every transfer is handle-based — issued
	// nonblocking, waited by the exchange — so the identical volume lands in
	// the overlapped breakdown, and the tier split books sends on the
	// next-neighbour link, receives on the previous. Otherwise K and V are
	// all-gathered.
	cpGather := func(ex int64) {
		if !cpRing {
			addC(&rv.cp, "allgather", R*nKVl*hd, 2*ex)
			return
		}
		msgs := 2 * (cpN - 1) * ex
		blk := 4 * R * nKVl * hd
		for _, dst := range []map[string]metrics.OpVolume{rp.Comm, rp.Overlapped} {
			addTo(dst, cp.RingLabel, "send", blk, msgs)
			addTo(dst, cp.RingLabel, "recv", blk, msgs)
		}
		tier(cross(rv.id, ringNext), blk*msgs)
		tier(cross(rv.id, ringPrev), blk*msgs)
	}

	for vs := 0; vs < cfg.V; vs++ {
		g := vs*topo.PP + rv.pp
		L := int64(counts[g])
		m := mbs * nmb // samples through the stage, each direction

		// Forward.
		if tp > 1 {
			// Wo and W2 row-parallel forward all-reduces (§5.2's "four
			// communications per layer", forward half).
			addC(&rv.tp, "allreduce", R*dim, 2*L*m)
			if g == 0 {
				addC(&rv.tp, "allreduce", R*dim, m) // vocab-parallel embed
			}
			if g == lastG {
				// Distributed softmax: max, exp-sum, target-prob.
				addF(nil, &rv.tp, "allreducemax", allReduceBytes(R, tp), m)
				addC(&rv.tp, "allreduce", R, 2*m)
			}
		}
		if cpN > 1 {
			cpGather(L * m) // one exchange per layer
		}
		if g > 0 {
			addP2P("recv", ppPeer(g-1))
		}
		if g < lastG {
			addP2P("send", ppPeer(g+1))
		}
		rp.FLOPs += m * L * blkFwd
		if g == lastG {
			rp.FLOPs += m * headFwd
		}

		// Backward.
		if tp > 1 {
			// Wq/Wk/Wv and W1/W3 column-parallel dx all-reduces.
			addC(&rv.tp, "allreduce", R*dim, 5*L*m)
			if g == lastG {
				addC(&rv.tp, "allreduce", R*dim, m) // head dn
			}
		}
		if cpN > 1 {
			addC(&rv.cp, "allreduce", S*nKVl*hd, 2*L*m) // reduce dK, dV
		}
		// Recompute replay re-issues the forward's collectives.
		switch cfg.Recompute {
		case model.RecomputeFull:
			if tp > 1 {
				addC(&rv.tp, "allreduce", R*dim, 2*L*m)
			}
			if cpN > 1 {
				cpGather(L * m)
			}
		case model.RecomputeSelective:
			if tp > 1 {
				addC(&rv.tp, "allreduce", R*dim, L*m)
			}
			if cpN > 1 {
				cpGather(L * m)
			}
		}
		if g < lastG {
			addP2P("recv", ppPeer(g+1))
		}
		if g > 0 {
			addP2P("send", ppPeer(g-1))
		}
		if cfg.ZeRO == fsdp.ZeRO2 {
			// Per-backward gradient reduce-scatter, one per unit (Fig 4c);
			// overlapped behind subsequent compute when Overlap.Grads
			// (nonblocking issues stay flat-keyed).
			for _, u := range units {
				if cfg.Overlap.Grads {
					addF(rp.Overlapped, &rv.fsdp, "reducescatter", reduceScatterBytes(u.elems*fs, fs), u.k*nmb)
				} else {
					addC(&rv.fsdp, "reducescatter", u.elems*fs, u.k*nmb)
				}
			}
		}
		rp.FLOPs += m * L * (2*blkFwd + replay)
		if g == lastG {
			rp.FLOPs += m * 2 * headFwd
		}
	}

	// Step end, per unit: gradient reduce-scatter + parameter all-gather
	// (fsdp.Shard.Step) — always blocking; ZeRO-1 over an FSDP group of one
	// steps on its flat gradients and issues no reduce-scatter — plus
	// ZeRO-3's re-gather of released parameters at the start of every
	// steady-state step, which the prefetch engine issues nonblocking when
	// Overlap.Params > 0.
	for _, u := range units {
		if cfg.ZeRO != fsdp.ZeRO1 || fs > 1 {
			addC(&rv.fsdp, "reducescatter", u.elems*fs, u.k)
		}
		addC(&rv.fsdp, "allgather", u.elems, u.k)
		if cfg.ZeRO == fsdp.ZeRO3 && steadyState {
			if cfg.Overlap.Params > 0 {
				addF(rp.Overlapped, &rv.fsdp, "allgather", allGatherBytes(u.elems, fs), u.k)
			} else {
				addC(&rv.fsdp, "allgather", u.elems, u.k)
			}
		}
	}
	// Loss aggregation: one world all-reduce of a single float per rank.
	addC(&rv.world, "allreduce", 1, 1)
	return rp
}

// cacheLabel reproduces the cluster group cache's label for a rank set
// without the cache: groups are deduplicated by rank set with
// first-creation-wins labels, ranks are built in ascending id order with
// slots in TP, CP, PP, FSDP, World order, and a set's first creator is its
// minimum member (every creator is a member). So the label is the first of
// the minimum member's five slot sets that equals the set.
func cacheLabel(topo core.Topology, s []int) string {
	m := s[0]
	switch {
	case equalRanks(topo.TPGroupRanks(m), s):
		return "tp"
	case equalRanks(topo.CPGroupRanks(m), s):
		return "cp"
	case equalRanks(topo.PPGroupRanks(m), s):
		return "pp"
	case equalRanks(topo.FSDPGroupRanks(m), s):
		return "dp"
	}
	return "world"
}

func equalRanks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// ConfigShardLens computes the per-unit FSDP shard lengths of pipeline rank
// ppr from the configuration alone: unit element counts follow the
// TP-sharded parameter shapes (vocab-parallel embedding and head,
// column/row-parallel projections, replicated norms), each padded up to a
// multiple of the DP×CP group size exactly like fsdp.New. counts is the
// per-global-stage layer assignment (pp.StageLayerCounts).
func ConfigShardLens(cfg core.Config, counts []int, ppr int) []int {
	m := cfg.Model
	tp := cfg.Topo.TP
	fs := cfg.Topo.DP * cfg.Topo.CP
	hd := m.HeadDim()
	embed := (m.Vocab / tp) * m.Dim
	block := 2*m.Dim + // the two replicated RMSNorm gains
		m.Dim*(m.NHeads/tp)*hd + 2*m.Dim*(m.NKVHeads/tp)*hd + // Wq, Wk, Wv
		(m.NHeads/tp)*hd*m.Dim + // Wo
		3*m.Dim*(m.Hidden/tp) // W1, W3, W2
	head := m.Dim + m.Dim*(m.Vocab/tp) // final norm + projection
	shard := func(elems int) int { return (elems + fs - 1) / fs }
	lastG := cfg.Topo.PP*cfg.V - 1
	var out []int
	for vs := 0; vs < cfg.V; vs++ {
		g := vs*cfg.Topo.PP + ppr
		if g == 0 {
			out = append(out, shard(embed))
		}
		for i := 0; i < counts[g]; i++ {
			out = append(out, shard(block))
		}
		if g == lastG {
			out = append(out, shard(head))
		}
	}
	return out
}

// configRankView derives one rank's prediction view from the configuration.
func configRankView(cfg core.Config, counts []int, all []int, id int) rankView {
	topo := cfg.Topo
	gv := func(ranks []int) groupView {
		return newGroupView(cacheLabel(topo, ranks), ranks, id, cfg.HostSize)
	}
	ppr := topo.Coords(id).PP
	return rankView{
		id:        id,
		pp:        ppr,
		tp:        gv(topo.TPGroupRanks(id)),
		cp:        gv(topo.CPGroupRanks(id)),
		fsdp:      gv(topo.FSDPGroupRanks(id)),
		world:     gv(all),
		ppRanks:   topo.PPGroupRanks(id),
		shardLens: ConfigShardLens(cfg, counts, ppr),
	}
}

// configCounts validates cfg and returns its per-global-stage layer counts.
func configCounts(cfg core.Config, caller string) []int {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("xval: %s on invalid config: %v", caller, err))
	}
	return pp.StageLayerCounts(cfg.Model.NLayers, cfg.Topo.PP*cfg.V, cfg.Balanced)
}

// PredictRank computes the exact per-step prediction of one rank from the
// configuration alone — no cluster and no schedule is built. The planner
// prices candidate configurations with it: Comm/FLOPs follow the identical
// arithmetic the conformance sweep pins against measured clusters, and the
// IntraBytes/InterBytes split is the network-tier volume the §5.1 reasoning
// minimises. cfg must be a valid core.Config (Validate passes).
func PredictRank(cfg core.Config, rank int, steadyState bool) *RankPrediction {
	counts := configCounts(cfg, "PredictRank")
	all := allWorldRanks(cfg.Topo.World())
	return predictRank(cfg, counts, configRankView(cfg, counts, all, rank), steadyState)
}

// PredictConfig is Predict from the configuration alone: the per-rank
// predictions of every rank of the world, byte-identical to what Predict
// returns for a live cluster of the same configuration (the conformance
// sweep asserts this). Note Expected.FLOPs is a world total in int64 — use
// PredictRank for worlds whose total would overflow (405B-scale step FLOPs
// exceed int64 around 10k ranks). Test surface:
// TestPredictConfigMatchesLiveCluster and the planner's
// TestSearchWinnerSpotCheckExact.
func PredictConfig(cfg core.Config, steadyState bool) *Expected {
	counts := configCounts(cfg, "PredictConfig")
	world := cfg.Topo.World()
	all := allWorldRanks(world)
	ex := newExpected(world)
	for id := 0; id < world; id++ {
		ex.fill(id, predictRank(cfg, counts, configRankView(cfg, counts, all, id), steadyState))
	}
	return ex
}

func allWorldRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func newExpected(world int) *Expected {
	return &Expected{
		Comm:       make([]map[string]metrics.OpVolume, world),
		Overlapped: make([]map[string]metrics.OpVolume, world),
		IntraBytes: make([]int64, world),
		InterBytes: make([]int64, world),
	}
}

func (ex *Expected) fill(id int, rp *RankPrediction) {
	ex.Comm[id] = rp.Comm
	ex.Overlapped[id] = rp.Overlapped
	ex.IntraBytes[id] = rp.IntraBytes
	ex.InterBytes[id] = rp.InterBytes
	ex.FLOPs += rp.FLOPs
}
