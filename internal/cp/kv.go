package cp

import (
	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// KV is the CP K/V exchanger of §4 over a Layout; it implements
// model.KVComm. The forward exchange is two grouped all-gathers (K and V)
// straight from the local chunks — fully exposed communication, by design —
// reassembled into "a full K and V tensor" in global position order, so the
// attention layer runs one fused kernel over the whole sequence.
type KV struct {
	seq   int
	group *comm.Group
	rank  int     // global rank
	pos   [][]int // global positions per local rank, resolved once
}

// Env builds the model environment of §4's exchange for one CP rank: the
// full-sequence mask (each rank computes its own mask from the entire
// sequence, per §4 "CP ranks"), the rank's global positions under layout,
// and the KV hook.
func Env(layout Layout, mask attention.Mask, group *comm.Group, globalRank int) *model.Env {
	kv := &KV{seq: layout.SeqLen(), group: group, rank: globalRank, pos: make([][]int, group.Size())}
	for lr := range kv.pos {
		kv.pos[lr] = layout.LocalPositions(lr)
	}
	return &model.Env{Mask: mask, QPos: kv.pos[group.LocalRank(globalRank)], KV: kv}
}

// gatherInto all-gathers local across the group and copies owner lr's rows
// to the global positions kv.pos[lr] of full — reassembly by per-rank
// offsets, so unequal shards gather correctly.
func (kv *KV) gatherInto(full, local *tensor.Tensor) {
	gathered := kv.group.AllGather(kv.rank, local)
	off := 0
	for _, owned := range kv.pos {
		for _, p := range owned {
			copy(full.Row(p), gathered.Row(off))
			off++
		}
	}
	tensor.Put(gathered)
}

// GatherKV implements model.KVComm: the full-sequence K and V, each one
// all-gather of the local chunks.
func (kv *KV) GatherKV(k, v *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	fullK := tensor.GetUninit(kv.seq, k.Cols())
	fullV := tensor.GetUninit(kv.seq, v.Cols())
	kv.gatherInto(fullK, k)
	kv.gatherInto(fullV, v)
	return fullK, fullV
}

// ReduceKVGrad implements model.KVComm: the backward-pass reduction of the
// full-sequence K/V gradients back to local chunks. Implemented as a
// deterministic all-reduce followed by local selection (numerically
// identical to a permuted reduce-scatter; the cost model accounts for the
// reduce-scatter volume).
func (kv *KV) ReduceKVGrad(dK, dV *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	rk := kv.group.AllReduce(kv.rank, dK)
	rv := kv.group.AllReduce(kv.rank, dV)
	pos := kv.pos[kv.group.LocalRank(kv.rank)]
	localDK, localDV := packRows(rk, pos), packRows(rv, pos)
	tensor.Put(rk, rv)
	return localDK, localDV
}
