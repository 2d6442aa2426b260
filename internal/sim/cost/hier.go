package cost

import "slices"

// Hierarchical collective pricing: the α-β time of the two-level transport
// internal/comm runs under a host topology, split into the tiers its
// accounting meters. The intra-host stage is a ring over the largest host's
// members on NVLink terms; the inter-host stage a ring over the host leaders
// on RoCE terms — the NVLink-island decomposition of §5.1, priced with the
// same per-tier constants GroupLink uses, so modeled tier seconds line up
// with the ".intra"/".inter" byte meters one for one.
//
// hostSize groups consecutive ranks exactly like comm.Topology.HostSize, and
// the degenerate layouts collapse the same way the transport does: a single
// host prices as a pure intra ring, all-singleton hosts as a pure inter ring
// (comm.HostLayout.Tiered's contract).

// hierLayout reduces a rank set under hostSize to the two numbers the α-β
// model needs: the largest host's member count m (the intra critical path)
// and the host count h. In sorted order one host's members are contiguous,
// so it walks host runs; every group the planner and the engine price is
// already sorted, anything else is sorted in a copy first.
func hierLayout(ranks []int, hostSize int) (m, h int) {
	if hostSize <= 0 {
		return len(ranks), 1
	}
	if !slices.IsSorted(ranks) {
		ranks = slices.Clone(ranks)
		slices.Sort(ranks)
	}
	for lo := 0; lo < len(ranks); h++ {
		end := (ranks[lo]/hostSize + 1) * hostSize // first rank past this host
		hi := lo + 1
		for hi < len(ranks) && ranks[hi] < end {
			hi++
		}
		m = max(m, hi-lo)
		lo = hi
	}
	return m, h
}

// tierRingTime is ringCollectiveTime with the link tier chosen explicitly
// rather than inferred from rank placement.
func (m Model) tierRingTime(n int, bytes float64, intraTier bool) float64 {
	if n <= 1 {
		return 0
	}
	net := m.Cluster.Net
	bw, lat := net.RoCEGBs, net.RoCELatencyUs
	if intraTier {
		bw, lat = net.NVLinkGBs, net.NVLinkLatencyUs
	}
	steps := float64(n - 1)
	return steps*lat*usToS + (steps/float64(n))*bytes/(bw*gb)
}

// hierCollectiveTime prices one hierarchical all-gather or reduce-scatter of
// `bytes` per rank as (intra, inter) stage seconds.
func (m Model) hierCollectiveTime(ranks []int, hostSize int, bytes float64) (intra, inter float64) {
	hm, hh := hierLayout(ranks, hostSize)
	if hh <= 1 {
		return m.tierRingTime(len(ranks), bytes, true), 0
	}
	if hm <= 1 {
		return 0, m.tierRingTime(len(ranks), bytes, false)
	}
	return m.tierRingTime(hm, bytes, true), m.tierRingTime(hh, bytes, false)
}

// HierAllGather returns the (intra, inter) stage times of a hierarchical
// all-gather of `bytes` of output per rank across the group under hosts of
// hostSize consecutive ranks.
func (m Model) HierAllGather(ranks []int, hostSize int, bytes float64) (intra, inter float64) {
	return m.hierCollectiveTime(ranks, hostSize, bytes)
}

// HierReduceScatter returns the (intra, inter) stage times of a hierarchical
// reduce-scatter of `bytes` of input per rank.
func (m Model) HierReduceScatter(ranks []int, hostSize int, bytes float64) (intra, inter float64) {
	return m.hierCollectiveTime(ranks, hostSize, bytes)
}
