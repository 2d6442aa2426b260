package cost

import (
	"testing"

	"llama4d/internal/sim/cluster"
)

func TestGEMMScalesWithWork(t *testing.T) {
	m := Default()
	small := m.GEMM(2048, 2048, 2048)
	big := m.GEMM(8192, 8192, 8192)
	if big <= small {
		t.Fatal("larger GEMM must take longer")
	}
	// 64× the FLOPs takes somewhat less than 64× the time (launch overhead
	// amortises) but must stay in the compute-bound ballpark.
	if ratio := big / small; ratio < 35 || ratio > 70 {
		t.Fatalf("GEMM scaling ratio %v", ratio)
	}
}

func TestSkinnyGEMMIsMemoryBound(t *testing.T) {
	// §8.1: parallelism shrinks GEMM dims; effective FLOPs/s must drop.
	m := Default()
	fat := m.GEMM(8192, 8192, 8192)
	fatRate := 2.0 * 8192 * 8192 * 8192 / fat
	skinny := m.GEMM(16, 8192, 8192)
	skinnyRate := 2.0 * 16 * 8192 * 8192 / skinny
	if skinnyRate >= fatRate/2 {
		t.Fatalf("skinny GEMM rate %v should be far below fat rate %v", skinnyRate, fatRate)
	}
}

func TestAttentionScalesWithPairs(t *testing.T) {
	m := Default()
	full := m.Attention(8192, 8192, 8192*8192/2, 16, 128)
	masked := m.Attention(8192, 8192, 8192*1024/2, 16, 128)
	if masked >= full {
		t.Fatal("document-masked attention must be faster than full causal")
	}
}

func TestCollectiveBandwidthHierarchy(t *testing.T) {
	m := Default()
	bytes := 256.0 * 1e6
	intra := m.AllGather([]int{0, 1, 2, 3}, bytes)
	inter := m.AllGather([]int{0, 8, 16, 24}, bytes)
	if intra >= inter {
		t.Fatalf("intra-node all-gather (%v) must beat inter-node (%v)", intra, inter)
	}
}

func TestAllReduceTwiceReduceScatter(t *testing.T) {
	m := Default()
	ranks := []int{0, 1, 2, 3}
	bytes := 1e8
	ar := m.AllReduce(ranks, bytes)
	rs := m.ReduceScatter(ranks, bytes)
	if ar < 1.8*rs || ar > 2.2*rs {
		t.Fatalf("ring all-reduce (%v) should cost ≈2× reduce-scatter (%v)", ar, rs)
	}
}

func TestSingleRankCollectiveIsFree(t *testing.T) {
	m := Default()
	if m.AllGather([]int{0}, 1e9) != 0 {
		t.Fatal("one-rank collective must be free")
	}
}

func TestAchievedBandwidthGrowsWithMessageSize(t *testing.T) {
	// The α term dominates small messages: achieved bandwidth must rise with
	// message size (the Fig 12 shape).
	m := Default()
	ranks := []int{0, 1}
	small := AchievedBandwidth(1e5/2, m.AllGather(ranks, 1e5))
	big := AchievedBandwidth(1e8/2, m.AllGather(ranks, 1e8))
	if small >= big {
		t.Fatalf("achieved BW small=%v must be below big=%v", small, big)
	}
	// And saturate below the link rate.
	if big >= m.Cluster.Net.NVLinkGBs {
		t.Fatalf("achieved BW %v cannot exceed link rate", big)
	}
}

func TestP2PInterVsIntraNode(t *testing.T) {
	m := Default()
	bytes := 32.0 * 1e6
	if m.P2P(0, 1, bytes) >= m.P2P(0, 8, bytes) {
		t.Fatal("NVLink P2P must beat RoCE P2P")
	}
}

func TestWithGPUSwapsHardware(t *testing.T) {
	m := Default().WithGPU(cluster.H100HBM2e())
	// Memory-bound op (a one-row GEMM streams the whole weight) is slower on
	// HBM2e.
	slow := m.GEMM(1, 16384, 16384)
	fast := Default().GEMM(1, 16384, 16384)
	if slow <= fast {
		t.Fatal("HBM2e must slow memory-bound work")
	}
}

func BenchmarkGEMMCost(b *testing.B) {
	m := Default()
	for i := 0; i < b.N; i++ {
		m.GEMM(8192, 16384, 2048)
	}
}

// toyCPCost returns a cost model whose Fig 13 crossover falls inside toy
// document lengths: compute is made so slow every ring transfer hides
// (exposed time 0), the link so slow the all-gather's byte term dominates,
// and the launch tax sized so ring wins documents longer than ~10 tokens.
func toyCPCost() Model {
	m := Default()
	m.AttnMFU = 1e-12
	m.KernelLaunchUs = 800
	m.Cluster.Net.NVLinkGBs = 1e-4
	m.Cluster.Net.RoCEGBs = 1e-4
	m.Cluster.Net.NVLinkLatencyUs = 0
	m.Cluster.Net.RoCELatencyUs = 0
	return m
}

// TestCPExchangePriceOrdering pins the Fig 13 ordering of the CP exchange
// prices on three document-length corpora (toy cost, so the crossover sits
// near 10-token documents): priced per document, ring is cheaper than
// all-gather on full-sequence documents, all-gather cheaper than ring on
// 4-token ones, and on a corpus mixing both the per-document minimum — the
// CPRingWins rule — is strictly below either exchange used throughout.
func TestCPExchangePriceOrdering(t *testing.T) {
	m := toyCPCost()
	const qh, kvh, hd = 4, 2, 8
	ranks := []int{0, 1, 2, 3}
	for _, tc := range []struct {
		name string
		docs []int
	}{
		{"short", []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}},
		{"mixed", []int{4, 4, 4, 4, 48}},
		{"long", []int{64}},
	} {
		var ag, ring, best float64
		for _, n := range tc.docs {
			a, r := m.CPAllGatherTime(ranks, n, kvh, hd), m.CPRingTime(ranks, n, qh, kvh, hd)
			if m.CPRingWins(ranks, n, qh, kvh, hd) != (r < a) {
				t.Fatalf("%s: CPRingWins(%d) disagrees with the prices %g, %g", tc.name, n, r, a)
			}
			ag, ring, best = ag+a, ring+r, best+min(a, r)
		}
		switch tc.name {
		case "long":
			if ring >= ag {
				t.Errorf("long docs: ring %gs not below all-gather %gs", ring, ag)
			}
		case "short":
			if ag >= ring {
				t.Errorf("short docs: all-gather %gs not below ring %gs", ag, ring)
			}
		case "mixed":
			if best >= min(ag, ring) {
				t.Errorf("mixed docs: per-document minimum %gs not strictly below all-gather %gs and ring %gs", best, ag, ring)
			}
		}
	}
}

// TestCPRingCrossoverAboveFunctionalLengths pins why the functional layer
// exchanges K/V by all-gather only: under the calibrated model, at the head
// shapes of the CP bench cells (4 query and 2 K/V heads of 16 and of 8
// dims), the ring first prices below all-gather at 131,072 and 262,144
// tokens inside a host and at 16,384 and 32,768 across hosts — far above
// the 2,048 tokens the functional layer runs.
func TestCPRingCrossoverAboveFunctionalLengths(t *testing.T) {
	m := Default()
	for _, tc := range []struct {
		hd           int
		ranks        []int
		firstRingWin int
	}{
		{16, []int{0, 1}, 131072},
		{16, []int{0, 8}, 16384},
		{8, []int{0, 1}, 262144},
		{8, []int{0, 8}, 32768},
	} {
		first := 0
		for n := 1; n <= 1<<22 && first == 0; n *= 2 {
			if m.CPRingWins(tc.ranks, n, 4, 2, tc.hd) {
				first = n
			}
		}
		if first != tc.firstRingWin {
			t.Errorf("hd %d ranks %v: first ring win at %d tokens, want %d", tc.hd, tc.ranks, first, tc.firstRingWin)
		}
	}
}
