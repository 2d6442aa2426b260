package cp

import "fmt"

// RaggedSharding is a CP row partition chosen per sequence instead of the
// fixed 2×cp zigzag: each local rank owns an arbitrary (strictly increasing)
// set of global row positions, and the sets exactly partition 0..Seq-1.
// The balance planner (internal/balance.PlanShards) emits equal-size
// cost-balanced partitions for document-masked sequences whose causal skew
// the zigzag scheme cannot equalise; the type itself accepts unequal shard
// sizes too — KV reassembles the all-gather by per-rank offsets, not by a
// common chunk length.
//
// Bitwise contract: attention is row-independent given the gathered full
// K/V — each query row's scores, softmax and P·V involve only that row — so
// *which* rank computes a row never changes the row's bits. Any
// RaggedSharding therefore produces per-row forward outputs (and dQ rows)
// bit-identical to the dense full-sequence kernel and hence to the even
// zigzag baseline; ragged_test.go property-tests exactly this across mask
// types × shard layouts. What a layout change does regroup is the cross-rank
// *sum* order of dK/dV contributions and of per-token loss terms — the
// non-associativity caveat KV.ReduceKVGrad carries under any layout.
type RaggedSharding struct {
	Seq int
	Pos [][]int // Pos[lr] = global row positions owned by local rank lr
}

// NewRaggedSharding validates that pos exactly partitions 0..seq-1 with each
// shard strictly increasing, and returns the sharding. The slices are
// retained, not copied.
func NewRaggedSharding(seq int, pos [][]int) RaggedSharding {
	if len(pos) == 0 {
		panic("cp: ragged sharding needs at least one shard")
	}
	seen := make([]bool, seq)
	n := 0
	for lr, shard := range pos {
		for i, p := range shard {
			if p < 0 || p >= seq {
				panic(fmt.Sprintf("cp: shard %d row %d outside [0, %d)", lr, p, seq))
			}
			if i > 0 && shard[i-1] >= p {
				panic(fmt.Sprintf("cp: shard %d not strictly increasing at %d", lr, i))
			}
			if seen[p] {
				panic(fmt.Sprintf("cp: row %d in two shards", p))
			}
			seen[p] = true
			n++
		}
	}
	if n != seq {
		panic(fmt.Sprintf("cp: shards cover %d of %d rows", n, seq))
	}
	return RaggedSharding{Seq: seq, Pos: pos}
}

// ZigzagRagged expresses the standard 2×cp zigzag sharding as a
// RaggedSharding — the even baseline in ragged form.
func ZigzagRagged(sh Sharding) RaggedSharding {
	pos := make([][]int, sh.CP)
	for lr := 0; lr < sh.CP; lr++ {
		pos[lr] = sh.LocalPositions(lr)
	}
	return RaggedSharding{Seq: sh.Seq, Pos: pos}
}

// SeqLen implements Layout.
func (rs RaggedSharding) SeqLen() int { return rs.Seq }

// LocalPositions returns local rank lr's global row positions.
func (rs RaggedSharding) LocalPositions(lr int) []int { return rs.Pos[lr] }
