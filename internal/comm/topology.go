package comm

import "fmt"

// Topology describes the physical layout of a world's ranks: HostSize
// consecutive global ranks share one host (an NVLink island in the paper's
// Grand Teton nodes, §5.1). Attach it to a World *before creating groups* —
// each group snapshots its host layout at construction. A zero Topology
// (HostSize 0) keeps every collective on the flat single-level path.
//
// With a topology attached, the four bulk collectives (AllGather,
// ReduceScatter, AllReduce, Broadcast) run hierarchically: contributions
// rendezvous per host first, each host's last arriver escalates them to one
// inter-host exchange, and per-op byte accounting splits into ".intra" and
// ".inter" tier entries (the NVLink-vs-RoCE split the sim's cost model
// prices). Results stay bitwise identical to the flat path: the hierarchy
// moves *where contributions rendezvous*, never the local-rank accumulation
// order of the single combine (§6.2's determinism contract).
type Topology struct {
	// HostSize is the number of consecutive global ranks per host
	// (8 for the paper's H100 nodes). 0 disables the hierarchy.
	HostSize int
}

// HostOf returns the host index of a global rank under this topology.
func (t Topology) HostOf(rank int) int {
	if t.HostSize <= 0 {
		return 0
	}
	return rank / t.HostSize
}

// HostLayout is a group's member-to-host mapping: which of the group's local
// ranks share a host, in local-rank order. It is the single source of truth
// for leader election and tier byte attribution, and is exported so the
// conformance and fuzz suites can check its invariants directly.
type HostLayout struct {
	// N is the group size.
	N int
	// Hosts lists each host's member local ranks in local-rank order;
	// hosts appear in order of their first member. A group that straddles
	// hosts arbitrarily (strided ranks, ragged last host) still partitions
	// exactly: every local rank appears in exactly one host.
	Hosts [][]int
	// HostOf maps a local rank to its index into Hosts.
	HostOf []int
	// PosOf maps a local rank to its position within Hosts[HostOf[lr]].
	PosOf []int
	// Leaders holds each host's leader: its first member in local-rank
	// order. Leaders are a deterministic role — inter-host traffic is
	// attributed to them at issue time, regardless of which member happens
	// to arrive last and carry the contributions at runtime.
	Leaders []int
}

// LayoutOf builds the host layout of a group over the given global ranks
// (position = local rank) with hosts of hostSize consecutive global ranks.
func LayoutOf(ranks []int, hostSize int) HostLayout {
	if hostSize <= 0 {
		panic(fmt.Sprintf("comm: host size %d", hostSize))
	}
	l := HostLayout{
		N:      len(ranks),
		HostOf: make([]int, len(ranks)),
		PosOf:  make([]int, len(ranks)),
	}
	idx := make(map[int]int) // physical host id -> index into l.Hosts
	for lr, r := range ranks {
		host := r / hostSize
		h, ok := idx[host]
		if !ok {
			h = len(l.Hosts)
			idx[host] = h
			l.Hosts = append(l.Hosts, nil)
			l.Leaders = append(l.Leaders, lr)
		}
		l.HostOf[lr] = h
		l.PosOf[lr] = len(l.Hosts[h])
		l.Hosts[h] = append(l.Hosts[h], lr)
	}
	return l
}

// Tiered reports whether the layout supports a two-level collective: more
// than one host, and at least one host holding more than one member. A
// single-host group is a pure NVLink ring and an all-singleton layout a pure
// inter-host ring — both degenerate to the flat path (and to flat, untiered
// accounting), which xval's predictor replicates.
func (l HostLayout) Tiered() bool { return len(l.Hosts) > 1 && len(l.Hosts) < l.N }

// TierVolumes returns the closed-form per-rank issue volume of one
// hierarchical collective, split into the intra-host and inter-host tiers,
// for the member at local rank lr contributing elems float32 elements. The
// leader return reports whether lr is its host's leader — only leaders issue
// (and are attributed) inter-host traffic. Formulas follow the two-level
// ring decomposition, with the same truncating int64 arithmetic as the flat
// ring volumes (m = host size, H = host count, n = group size, B = 4·elems):
//
//	allgather      member: B(m−1) intra; leader adds B·m·(H−1) inter and the
//	               non-leaders B(n−m) intra (the leader's rebroadcast), so a
//	               non-leader's intra total is B(n−1).
//	reducescatter  member: B(m−1)/m intra; leader adds B(H−1)/H inter,
//	               non-leaders B/n intra (their final chunk from the leader).
//	allreduce      member: 2B(m−1)/m intra; leader adds 2B(H−1)/H inter.
//
// Broadcast is root-attributed (only the root contributes bytes) and is
// accounted inline by Group.Broadcast rather than here.
func (l HostLayout) TierVolumes(op string, lr int, elems int64) (intra, inter int64, leader bool) {
	b := elems * 4
	h := l.HostOf[lr]
	m := int64(len(l.Hosts[h]))
	H := int64(len(l.Hosts))
	n := int64(l.N)
	leader = l.Hosts[h][0] == lr
	switch op {
	case "allgather":
		if leader {
			return b * (m - 1), b * m * (H - 1), true
		}
		return b * (n - 1), 0, false
	case "reducescatter":
		if leader {
			return b * (m - 1) / m, b * (H - 1) / H, true
		}
		return b*(m-1)/m + b/n, 0, false
	case "allreduce":
		if leader {
			return 2 * b * (m - 1) / m, 2 * b * (H - 1) / H, true
		}
		return 2 * b * (m - 1) / m, 0, false
	}
	panic("comm: no tier volumes for op " + op)
}
