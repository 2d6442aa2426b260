package xval

import (
	"llama4d/internal/metrics"
)

// This file is the predictor's independent model of the hierarchical
// collective tiers: the role arithmetic (host membership, leader election)
// and the closed-form ".intra"/".inter" volumes are re-derived from the
// topology definition alone, never read out of comm's HostLayout — the same
// deliberate duplication that keeps allReduceBytes &co. an oracle for the
// flat path. The conformance grid asserts comm's measured tier bytes against
// these formulas exactly, at every swept world size.

// commRole is one rank's position in a group under a host topology: group
// size n, its own host's member count m, the group's host count H, and
// whether the rank leads its host (is the host's first member in local-rank
// order). tiered reports whether the group runs the hierarchical path at
// all: more than one host and at least one host with several members —
// otherwise the transport and the accounting stay flat.
type commRole struct {
	n, m, H int64
	leader  bool
	tiered  bool
}

// roleOf computes the commRole of global rank `global` within the group over
// `ranks` (position = local rank; ascending global ids, the order every
// topology group lists its members in) under hosts of hostSize consecutive
// global ranks. hostSize <= 0 means no topology: a flat role. An ascending
// group's members of one host are contiguous, so the scan walks host runs:
// no allocation and one division per host.
func roleOf(ranks []int, global, hostSize int) commRole {
	ro := commRole{n: int64(len(ranks))}
	if hostSize <= 0 {
		return ro
	}
	found := false
	for lo := 0; lo < len(ranks); {
		end := (ranks[lo]/hostSize + 1) * hostSize // first rank past this host
		hi := lo
		for ; hi < len(ranks) && ranks[hi] < end; hi++ {
			if hi > lo && ranks[hi] <= ranks[hi-1] {
				panic("xval: group ranks not ascending")
			}
			if ranks[hi] == global {
				found = true
				ro.leader = hi == lo // the host's first member leads
			}
		}
		if global >= end-hostSize && global < end {
			ro.m = int64(hi - lo)
		}
		ro.H++
		lo = hi
	}
	if !found {
		panic("xval: rank not in group")
	}
	ro.tiered = ro.H > 1 && ro.H < ro.n
	return ro
}

// tierBytes is the closed-form per-rank issue volume of one hierarchical
// collective, split by tier, with comm's truncating int64 arithmetic
// (B = 4·elems; see comm.HostLayout.TierVolumes for the derivation).
// inter is meaningful only for the host leader — non-leaders never issue
// inter-host traffic.
func tierBytes(op string, elems int64, ro commRole) (intra, inter int64) {
	b := elems * 4
	switch op {
	case "allgather":
		if ro.leader {
			return b * (ro.m - 1), b * ro.m * (ro.H - 1)
		}
		return b * (ro.n - 1), 0
	case "reducescatter":
		if ro.leader {
			return b * (ro.m - 1) / ro.m, b * (ro.H - 1) / ro.H
		}
		return b*(ro.m-1)/ro.m + b/ro.n, 0
	case "allreduce":
		if ro.leader {
			return 2 * b * (ro.m - 1) / ro.m, 2 * b * (ro.H - 1) / ro.H
		}
		return 2 * b * (ro.m - 1) / ro.m, 0
	}
	panic("xval: no tier formula for op " + op)
}

// flatCollBytes is the flat single-ring volume of one collective issue.
func flatCollBytes(op string, elems, n int64) int64 {
	switch op {
	case "allgather":
		return allGatherBytes(elems, n)
	case "reducescatter":
		return reduceScatterBytes(elems, n)
	case "allreduce":
		return allReduceBytes(elems, n)
	}
	panic("xval: no flat formula for op " + op)
}

// PredictCollective returns the exact expected per-member accounting of ONE
// collective issue over a group of the given global ranks on a world with
// hosts of hostSize consecutive ranks: a map keyed like the metrics
// registry's Comm entries but without the group-label prefix (e.g.
// "allreduce.intra", or plain "allreduce" when the layout is untiered),
// indexed by local rank.
//
// elems is each member's contribution element count. For "broadcast" it is
// the root's (local rank 0's) element count: the flat convention attributes
// a broadcast's bytes to the root only, and the tiered convention splits the
// root's volume into one intra-host and one inter-host issue, with non-root
// members recording a zero-byte intra message.
//
// Test surface: comm's hier == flat conformance grid (hier_test.go) asserts
// every collective against it.
func PredictCollective(groupRanks []int, hostSize int, op string, elems int64) []map[string]metrics.OpVolume {
	out := make([]map[string]metrics.OpVolume, len(groupRanks))
	for lr, r := range groupRanks {
		m := make(map[string]metrics.OpVolume)
		ro := roleOf(groupRanks, r, hostSize)
		if op == "broadcast" {
			var b int64
			if lr == 0 {
				b = elems * 4
			}
			if ro.tiered {
				m["broadcast.intra"] = metrics.OpVolume{Bytes: b, Msgs: 1}
				if lr == 0 {
					m["broadcast.inter"] = metrics.OpVolume{Bytes: b, Msgs: 1}
				}
			} else {
				m["broadcast"] = metrics.OpVolume{Bytes: b, Msgs: 1}
			}
		} else if ro.tiered {
			intra, inter := tierBytes(op, elems, ro)
			m[op+".intra"] = metrics.OpVolume{Bytes: intra, Msgs: 1}
			if ro.leader {
				m[op+".inter"] = metrics.OpVolume{Bytes: inter, Msgs: 1}
			}
		} else {
			m[op] = metrics.OpVolume{Bytes: flatCollBytes(op, elems, ro.n), Msgs: 1}
		}
		out[lr] = m
	}
	return out
}
