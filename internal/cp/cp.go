// Package cp implements the paper's context parallelism (§4, §7.2): the input
// sequence is split along its length across a CP group, attention exchanges
// the key/value tensors, and every rank evaluates the attention mask in
// global coordinates — which is what makes irregular document masks work
// where ring-style tiling is error-prone.
//
// The package is one algorithm in two parts. A Layout says which global rows
// each local rank owns: Sharding is the paper's load-balancing scheme (the
// sequence is split into 2×cp chunks and rank i owns chunks i and 2×cp−i−1,
// equalising causal attention work across ranks), RaggedSharding an
// arbitrary planned partition. KV is the exchanger: it all-gathers K and V
// over a Layout (fully exposed communication, by design) and implements
// model.KVComm; Env is its one constructor.
package cp

import (
	"fmt"

	"llama4d/internal/attention"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// Layout is a CP row partition: which global positions each local rank
// owns, over what sequence length. Both Sharding (even zigzag) and
// RaggedSharding (planned shards) implement it; everything downstream — row
// selection, the exchanger, the environment — is written against it once.
type Layout interface {
	SeqLen() int
	LocalPositions(lr int) []int
}

// Sharding describes the 2×cp chunk assignment for one sequence length.
type Sharding struct {
	Seq int
	CP  int
}

// NewSharding validates and builds a sharding. Seq must be divisible by 2·cp.
func NewSharding(seq, cp int) Sharding {
	if cp <= 0 || seq%(2*cp) != 0 {
		panic(fmt.Sprintf("cp: seq %d not divisible by 2*cp=%d", seq, 2*cp))
	}
	return Sharding{Seq: seq, CP: cp}
}

// SeqLen implements Layout.
func (s Sharding) SeqLen() int { return s.Seq }

// ChunkLen returns the token count of one chunk.
func (s Sharding) ChunkLen() int { return s.Seq / (2 * s.CP) }

// Chunks returns the two chunk indices owned by a CP local rank: (i, 2cp−i−1).
func (s Sharding) Chunks(localRank int) (int, int) {
	return localRank, 2*s.CP - localRank - 1
}

// LocalPositions returns the global positions of the rows owned by a local
// rank, in local row order (first chunk then mirrored chunk).
func (s Sharding) LocalPositions(localRank int) []int {
	c := s.ChunkLen()
	a, b := s.Chunks(localRank)
	pos := make([]int, 0, 2*c)
	for i := 0; i < c; i++ {
		pos = append(pos, a*c+i)
	}
	for i := 0; i < c; i++ {
		pos = append(pos, b*c+i)
	}
	return pos
}

// CausalWorkBalanced verifies the defining property of the 2×cp sharding:
// every rank gets the same number of causal attention pairs. Returns the
// per-rank pair counts.
func (s Sharding) CausalWorkBalanced() []int {
	counts := make([]int, s.CP)
	for r := 0; r < s.CP; r++ {
		counts[r] = attention.AllowedPairs(attention.Causal{}, s.LocalPositions(r), s.Seq)
	}
	return counts
}

// packRows copies the idx-selected rows of t into a fresh packed tensor.
func packRows(t *tensor.Tensor, idx []int) *tensor.Tensor {
	out := tensor.GetUninit(len(idx), t.Cols())
	for i, r := range idx {
		copy(out.Row(i), t.Row(r))
	}
	return out
}

// pickInts returns the idx-selected entries of full.
func pickInts(full, idx []int) []int {
	out := make([]int, len(idx))
	for i, p := range idx {
		out[i] = full[p]
	}
	return out
}

// LocalInts selects local rank lr's entries of a full-sequence int slice.
func LocalInts(l Layout, full []int, lr int) []int {
	return pickInts(full, l.LocalPositions(lr))
}

// LocalSample carves one rank's shard out of a full-sequence sample: local
// tokens and targets in local row order. The document ids stay full-length —
// the mask needs the whole sequence (§4 "Dataloaders").
func LocalSample(l Layout, s *model.Sample, lr int) *model.Sample {
	return &model.Sample{
		Tokens:  LocalInts(l, s.Tokens, lr),
		DocIDs:  s.DocIDs, // full sequence: mask computation needs it all
		Targets: LocalInts(l, s.Targets, lr),
	}
}
