// Package cost is the roofline + α-β performance model of the reproduction:
// GEMM and attention kernel times from a memory-bandwidth-aware roofline,
// collective and point-to-point times from latency/bandwidth terms over the
// hierarchical network. The absolute constants are calibrated to public H100
// numbers; the paper's figures are about *shapes* — who wins, by what
// factor, where crossovers fall — which the model preserves.
package cost

import (
	"llama4d/internal/sim/cluster"
)

// Model evaluates kernel and communication times (in seconds) on a cluster.
type Model struct {
	Cluster cluster.Cluster

	// MaxMFU caps achievable GEMM efficiency. Set below raw kernel MFU
	// (~75%) because it also absorbs unmodelled per-layer overheads:
	// elementwise kernels, optimizer time, host jitter, stragglers.
	MaxMFU float64
	// AttnMFU caps flash-attention kernel efficiency, which sits well below
	// GEMM efficiency on H100, likewise deflated for unmodelled overheads.
	AttnMFU float64
	// KernelLaunchUs is the fixed host-side cost per kernel launch — the
	// CPU-overhead term of §8.1's "ensure sufficient CPU performance".
	KernelLaunchUs float64
}

// Default returns the calibrated model on the production cluster.
func Default() Model {
	return Model{Cluster: cluster.Production16K(), MaxMFU: 0.58, AttnMFU: 0.42, KernelLaunchUs: 6}
}

// WithGPU returns a copy of the model using a different GPU.
func (m Model) WithGPU(g cluster.GPU) Model {
	m.Cluster.GPU = g
	return m
}

const (
	usToS = 1e-6
	gb    = 1e9
)

// rooflineTime returns the execution time of a kernel performing `flops`
// FLOPs at peak efficiency mfu while moving `bytes` bytes through HBM: the
// max of the compute-bound and memory-bound times, plus launch overhead.
func (m Model) rooflineTime(flops, bytes, mfu float64) float64 {
	compute := flops / (m.Cluster.GPU.PeakBF16TFLOPs * 1e12 * mfu)
	mem := bytes / (m.Cluster.GPU.HBMBandwidthGBs * gb)
	t := compute
	if mem > t {
		t = mem
	}
	return t + m.KernelLaunchUs*usToS
}

// GEMM returns the time of a [mxk]@[kxn] BF16 matrix multiply. Skinny shapes
// (small m from micro-batching, small n/k from TP sharding) fall onto the
// memory-bound side of the roofline — §8.1's "optimize compute efficiency
// for a wide range of shapes".
func (m Model) GEMM(mm, kk, nn int64) float64 {
	flops := 2 * float64(mm) * float64(kk) * float64(nn)
	bytes := 2 * (float64(mm)*float64(kk) + float64(kk)*float64(nn) + float64(mm)*float64(nn))
	return m.rooflineTime(flops, bytes, m.MaxMFU)
}

// Attention returns the time of a flash-style attention kernel computing
// qTokens query rows against kvTokens key/value rows of which `pairs`
// (query, key) positions are mask-allowed. Mask-aware FLOPs scale with the
// allowed-pair count (full causal ≈ q·kv/2; document masks much less —
// Fig 11/14); HBM traffic is the flash-attention O(seq·d) stream of Q, K, V
// and O.
func (m Model) Attention(qTokens, kvTokens, pairs, heads, hd int64) float64 {
	flops := 4 * float64(pairs) * float64(heads) * float64(hd) // QKᵀ + PV
	// KV traffic covers only mask-touched blocks: with a document mask each
	// query block streams roughly its documents' span, ≈ 2·pairs/qTokens.
	kvTouched := float64(kvTokens)
	if qTokens > 0 {
		if eff := 2 * float64(pairs) / float64(qTokens); eff < kvTouched {
			kvTouched = eff
		}
	}
	bytes := 2 * float64(heads) * float64(hd) * (2*float64(qTokens) + 2*kvTouched)
	return m.rooflineTime(flops, bytes, m.AttnMFU)
}

// DenseLayer returns the GEMM time of one transformer layer over `tokens`
// rows on one TP shard (qHeads, kvHeads and hidden are the shard's): attnProj
// is the fused q,k,v projection plus the output projection — the GEMMs a
// selective-recompute replay re-runs — and all adds the SwiGLU gate, up and
// down projections. Every simulator prices a dense layer through this one
// sum, in this order.
func (m Model) DenseLayer(tokens, dim, hidden, qHeads, kvHeads, hd int64) (attnProj, all float64) {
	attnProj = m.GEMM(tokens, dim, (qHeads+2*kvHeads)*hd) + m.GEMM(tokens, qHeads*hd, dim)
	all = attnProj + 2*m.GEMM(tokens, dim, hidden) + m.GEMM(tokens, hidden, dim)
	return attnProj, all
}

// ringCollectiveTime is the α-β time of a ring collective moving
// `perRankVolumeFactor × bytes` per rank over a group with n members.
func (m Model) ringCollectiveTime(ranks []int, bytes float64, volumeFactor float64) float64 {
	n := float64(len(ranks))
	if n <= 1 {
		return 0
	}
	bw, lat := m.Cluster.GroupLink(ranks)
	steps := n - 1
	return steps*lat*usToS + volumeFactor*(steps/n)*bytes/(bw*gb)
}

// AllGather returns the time to all-gather `bytes` of output per rank
// (i.e. each rank contributes bytes/n) across the group.
func (m Model) AllGather(ranks []int, bytes float64) float64 {
	return m.ringCollectiveTime(ranks, bytes, 1)
}

// ReduceScatter returns the time to reduce-scatter `bytes` of input per rank.
func (m Model) ReduceScatter(ranks []int, bytes float64) float64 {
	return m.ringCollectiveTime(ranks, bytes, 1)
}

// AllReduce returns the time of a ring all-reduce of `bytes` per rank.
func (m Model) AllReduce(ranks []int, bytes float64) float64 {
	return m.ringCollectiveTime(ranks, bytes, 2)
}

// CheckpointWrite returns the time for every rank to persist bytesPerRank
// of checkpoint state in parallel to the storage tier — the δ term of the
// goodput model (internal/sim/goodput). Coordinated checkpoints write all
// shards concurrently, so the cluster-level time is the per-rank time at
// the per-GPU sustained storage bandwidth.
func (m Model) CheckpointWrite(bytesPerRank float64) float64 {
	bw := m.Cluster.Net.StorageGBs
	if bw <= 0 {
		bw = 0.4 // GrandTeton default; keeps hand-built models sane
	}
	return bytesPerRank / (bw * gb)
}

// P2P returns the time of a point-to-point transfer between two ranks.
func (m Model) P2P(from, to int, bytes float64) float64 {
	bw, lat := m.Cluster.GroupLink([]int{from, to})
	return lat*usToS + bytes/(bw*gb)
}

// AchievedBandwidth converts a collective's time back into achieved
// algorithm bandwidth (GB/s), as plotted in Fig 12.
func AchievedBandwidth(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes / seconds / gb
}
