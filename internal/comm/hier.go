package comm

import (
	"time"

	"llama4d/internal/tensor"
)

// hierState is a group's hierarchical transport, snapshotted at NewGroup
// from the world's Topology: the host layout plus one rendezvous per host
// (where that host's members meet — contention bounded by host size, not
// world size) and one inter-host rendezvous (where the hosts' carriers meet
// — contention bounded by host count).
type hierState struct {
	layout  HostLayout
	hostRv  []*rendezvous
	interRv *rendezvous
}

func newHierState(l HostLayout) *hierState {
	hs := &hierState{layout: l, interRv: &rendezvous{}, hostRv: make([]*rendezvous, len(l.Hosts))}
	for i := range hs.hostRv {
		hs.hostRv[i] = &rendezvous{}
	}
	return hs
}

// hierEnter is the two-level counterpart of enter: contributions rendezvous
// intra-host first, each host's last arriver ("carrier") escalates its
// host's contributions to the inter-host rendezvous, and the last carrier
// runs the ordinary combine. Bitwise identity with the flat path is by
// construction: the hierarchy only *gathers* contributions in two hops —
// there are no per-host partial reductions (FP addition is non-associative;
// partial sums would change bits) — and the single combine sees the full
// contribution list in local-rank order, exactly as the flat path's combine
// does. What the hierarchy changes is coordination cost (each rank contends
// with its host, carriers with other carriers) and byte/latency attribution
// (intra vs inter tiers), not arithmetic.
//
// Timing is recorded as a partition: a member's whole in-collective wait
// lands on the group label, a carrier's split into its inter-host phase
// (label+".inter") and the remainder — so per-rank comm seconds still sum to
// wall in-collective time exactly once.
func (g *Group) hierEnter(globalRank int, op string, contrib, dst *tensor.Tensor, stage bool, combine func(contribs, results []*tensor.Tensor)) *tensor.Tensor {
	rec := g.world.Recorder
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	lr := g.LocalRank(globalRank)
	g.world.beforeOp(globalRank, g.Label+"."+op, contrib)

	hs := g.hier
	h := hs.layout.HostOf[lr]
	mem := hs.layout.Hosts[h]
	pos := hs.layout.PosOf[lr]
	seq := g.seq[lr].hier
	g.seq[lr].hier++

	host := hs.hostRv[h].claim(seq, op, len(mem), len(mem))
	host.deposit(pos, contrib, dst, stage)

	var interSeconds float64
	if int(host.arrived.Add(1)) == len(mem) {
		// Carrier: escalate this host's deposits into the inter-host slot at
		// their group-wide local-rank positions. Staging ownership moves
		// with them — the inter combine's releaseStaged returns them.
		H := len(hs.layout.Hosts)
		inter := hs.interRv.claim(seq, op, H, len(g.ranks))
		for i, mlr := range mem {
			inter.contribs[mlr] = host.contribs[i]
			inter.staged[mlr] = host.staged[i]
			inter.result[mlr] = host.result[i]
			host.staged[i] = nil
		}
		var interStart time.Time
		if rec != nil {
			interStart = time.Now()
		}
		if int(inter.arrived.Add(1)) == H {
			combine(inter.contribs, inter.result)
			inter.releaseStaged()
			close(inter.done)
		} else {
			g.world.await(globalRank, g.Label+"."+op+".inter", inter.done)
		}
		if rec != nil {
			interSeconds = time.Since(interStart).Seconds()
			rec.RecordComm(globalRank, g.Label+".inter", interSeconds)
		}
		for i, mlr := range mem {
			host.result[i] = inter.result[mlr]
		}
		hs.interRv.retire(inter)
		close(host.done)
	} else {
		g.world.await(globalRank, g.Label+"."+op+".intra", host.done)
	}
	res := host.result[pos]
	hs.hostRv[h].retire(host)
	if rec != nil {
		rec.RecordComm(globalRank, g.Label, time.Since(start).Seconds()-interSeconds)
	}
	return res
}

// collEnter dispatches one blocking collective to the transport selected at
// accounting time, so accounting and transport always agree even if the
// global toggle flips mid-call.
func (g *Group) collEnter(globalRank int, op string, hier bool, contrib, dst *tensor.Tensor, stage bool, combine func(contribs, results []*tensor.Tensor)) *tensor.Tensor {
	if hier {
		return g.hierEnter(globalRank, op, contrib, dst, stage, combine)
	}
	return g.enter(globalRank, op, contrib, dst, stage, combine)
}

// collAccount records the closed-form per-rank volume of one collective
// issue — split into ".intra"/".inter" tier entries when the group runs the
// op hierarchically — and reports which transport the call must take.
// Inter-host volume is attributed to the deterministic leader role (the
// host's first member), never to the runtime carrier, which is whichever
// member happened to arrive last.
func (g *Group) collAccount(globalRank int, op string, elems, flatBytes int64) bool {
	if g.hier == nil {
		g.account(globalRank, op, flatBytes)
		return false
	}
	intra, inter, leader := g.hier.layout.TierVolumes(op, g.LocalRank(globalRank), elems)
	g.account(globalRank, op+".intra", intra)
	if leader {
		g.account(globalRank, op+".inter", inter)
	}
	return true
}
