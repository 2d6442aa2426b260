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
