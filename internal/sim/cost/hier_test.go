package cost

import "testing"

func spanRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHierDegenerateLayouts(t *testing.T) {
	m := Default()
	const bytes = 1 << 26
	ranks := spanRanks(8)

	// hostSize >= group: one host, pure intra ring, no inter stage.
	intra, inter := m.HierReduceScatter(ranks, 16, bytes)
	if inter != 0 {
		t.Fatalf("single-host layout priced %v s inter", inter)
	}
	if intra <= 0 {
		t.Fatal("single-host layout must price an intra stage")
	}

	// hostSize 1: all-singleton hosts, pure inter ring, no intra stage.
	intra, inter = m.HierReduceScatter(ranks, 1, bytes)
	if intra != 0 {
		t.Fatalf("singleton-host layout priced %v s intra", intra)
	}
	if inter <= 0 {
		t.Fatal("singleton-host layout must price an inter stage")
	}

	// hostSize 0: no topology at all — same as the single-host collapse.
	intra, inter = m.HierAllGather(ranks, 0, bytes)
	if inter != 0 || intra <= 0 {
		t.Fatalf("untopologised layout priced (%v, %v)", intra, inter)
	}
}

// TestHierBeatsFlatAcrossNodes pins the point of the hierarchy: once a group
// spans nodes, the flat ring runs every one of its n−1 steps at RoCE latency
// and bandwidth, while the two-level decomposition keeps m−1 steps on NVLink
// and crosses RoCE only H−1 times. For a multi-node all-gather the summed
// tier time must beat the flat ring, and the inter stage must dominate the
// intra stage (the premise of tier-split accounting).
func TestHierBeatsFlatAcrossNodes(t *testing.T) {
	m := Default()
	const bytes = 1 << 28
	perNode := m.Cluster.Net.GPUsPerNode
	ranks := spanRanks(8 * perNode) // 8 nodes

	flat := m.AllGather(ranks, bytes)
	intra, inter := m.HierAllGather(ranks, perNode, bytes)
	if sum := intra + inter; sum >= flat {
		t.Fatalf("hierarchical %v s not below flat %v s", sum, flat)
	}
	if intra >= inter {
		t.Fatalf("intra stage %v s should be cheaper than inter stage %v s", intra, inter)
	}
}

func TestHierVolumeFactors(t *testing.T) {
	m := Default()
	const bytes = 1 << 26
	perNode := m.Cluster.Net.GPUsPerNode
	ranks := spanRanks(4 * perNode)

	agIntra, agInter := m.HierAllGather(ranks, perNode, bytes)
	rsIntra, rsInter := m.HierReduceScatter(ranks, perNode, bytes)
	if agIntra != rsIntra || agInter != rsInter {
		t.Fatal("all-gather and reduce-scatter stages must price identically")
	}
}

// TestHierLayoutOrderFree: the host-run walk prices a group the same in any
// member order, duplicates and ragged hosts included.
func TestHierLayoutOrderFree(t *testing.T) {
	sorted := []int{0, 1, 2, 8, 8, 9, 17, 30, 31}
	shuffled := []int{31, 8, 0, 17, 9, 2, 8, 30, 1}
	if m, h := hierLayout(sorted, 8); m != 3 || h != 4 {
		t.Fatalf("sorted layout (m=%d, h=%d), want (3, 4)", m, h)
	}
	if sm, sh := hierLayout(shuffled, 8); sm != 3 || sh != 4 {
		t.Fatalf("shuffled layout (m=%d, h=%d), want (3, 4)", sm, sh)
	}
	if shuffled[0] != 31 {
		t.Fatal("hierLayout sorted its caller's slice")
	}
}
