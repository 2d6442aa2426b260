// Package tp implements Megatron-style tensor parallelism (§2.1): linear
// modules split along input or output dimensions across the ranks of a TP
// group, with the conjugate identity/all-reduce communication pattern.
//
// The package plugs into the model package through the Layer interface:
// ShardBlock rewrites a sequential transformer block into its TP-sharded
// equivalent (head-sharded attention, column/row-parallel SwiGLU) whose
// forward and backward are numerically equivalent to the sequential layer.
package tp

import (
	"fmt"

	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// Ctx identifies one rank's membership in a TP group.
type Ctx struct {
	Group *comm.Group
	Rank  int // global rank
}

// Local returns the rank's local index within the TP group.
func (c *Ctx) Local() int { return c.Group.LocalRank(c.Rank) }

// Size returns the TP degree.
func (c *Ctx) Size() int { return c.Group.Size() }

// ColParallelLinear holds a column shard of a [in, out] weight: this rank
// owns columns [local*out/tp, (local+1)*out/tp). With GatherOutput false the
// output stays sharded (head-parallel attention, SwiGLU gate/up); with true
// the outputs are all-gathered along columns.
//
// Forward communication: none (GatherOutput=false) or all-gather.
// Backward communication: all-reduce of the input gradient — the conjugate
// "g" operator of Megatron-LM.
type ColParallelLinear struct {
	P            *model.Param // [in, out/tp]
	Ctx          *Ctx
	GatherOutput bool
}

// NewColParallelFromFull shards a full [in, out] weight by columns for this
// rank. Used to build TP models bitwise-consistent with a sequential one.
func NewColParallelFromFull(name string, full *tensor.Tensor, ctx *Ctx, gatherOutput bool) *ColParallelLinear {
	tpSize := ctx.Size()
	out := full.Cols()
	if out%tpSize != 0 {
		panic(fmt.Sprintf("tp: output dim %d not divisible by tp=%d", out, tpSize))
	}
	shard := tensor.ColBlock(full, tpSize, ctx.Local())
	return &ColParallelLinear{P: model.NewParam(name, shard), Ctx: ctx, GatherOutput: gatherOutput}
}

type colCtx struct {
	x *tensor.Tensor
}

// Forward implements model.Layer.
func (l *ColParallelLinear) Forward(x *tensor.Tensor, _ *model.Env) (*tensor.Tensor, any) {
	y := tensor.MatMul(x, l.P.W)
	if l.GatherOutput {
		full := l.Ctx.Group.AllGatherCols(l.Ctx.Rank, y)
		tensor.Put(y)
		y = full
	}
	return y, &colCtx{x: x}
}

// Backward implements model.Layer.
func (l *ColParallelLinear) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*colCtx)
	var dyLocal *tensor.Tensor
	if l.GatherOutput {
		dyLocal = tensor.ColBlock(dy, l.Ctx.Size(), l.Ctx.Local())
		dy = dyLocal
	}
	tensor.TMatMulAcc(l.P.G, ctx.x, dy)
	dxPartial := tensor.MatMulT(dy, l.P.W)
	tensor.Put(dyLocal)
	// The input was replicated across TP ranks: its gradient is the sum of
	// every rank's partial contribution.
	dx := l.Ctx.Group.AllReduce(l.Ctx.Rank, dxPartial)
	tensor.Put(dxPartial)
	return dx
}

// Params implements model.Layer.
func (l *ColParallelLinear) Params() []*model.Param { return []*model.Param{l.P} }

// RowParallelLinear holds a row shard of a [in, out] weight: this rank owns
// rows [local*in/tp, (local+1)*in/tp). The input arrives already sharded
// along its columns (the output of a GatherOutput=false column-parallel
// layer); the forward all-reduces the partial products.
//
// Forward communication: all-reduce. Backward communication: none.
type RowParallelLinear struct {
	P   *model.Param // [in/tp, out]
	Ctx *Ctx
}

// NewRowParallelFromFull shards a full [in, out] weight by rows.
func NewRowParallelFromFull(name string, full *tensor.Tensor, ctx *Ctx) *RowParallelLinear {
	tpSize := ctx.Size()
	in := full.Rows()
	if in%tpSize != 0 {
		panic(fmt.Sprintf("tp: input dim %d not divisible by tp=%d", in, tpSize))
	}
	shard := tensor.SplitRows(full, tpSize)[ctx.Local()].Clone()
	return &RowParallelLinear{P: model.NewParam(name, shard), Ctx: ctx}
}

type rowCtx struct {
	x *tensor.Tensor
}

// Partial is this rank's term of the product, before the sum over the group
// — for a caller that schedules the sum itself (serve's decode issues it
// nonblocking, per chunk).
func (l *RowParallelLinear) Partial(x *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMul(x, l.P.W)
}

// Forward implements model.Layer.
func (l *RowParallelLinear) Forward(x *tensor.Tensor, _ *model.Env) (*tensor.Tensor, any) {
	partial := l.Partial(x)
	y := l.Ctx.Group.AllReduce(l.Ctx.Rank, partial)
	tensor.Put(partial)
	return y, &rowCtx{x: x}
}

// Backward implements model.Layer.
func (l *RowParallelLinear) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*rowCtx)
	tensor.TMatMulAcc(l.P.G, ctx.x, dy)
	return tensor.MatMulT(dy, l.P.W)
}

// Params implements model.Layer.
func (l *RowParallelLinear) Params() []*model.Param { return []*model.Param{l.P} }

// ShardAttention builds the TP-sharded equivalent of a sequential attention
// layer: Q/K/V column-parallel without gathering (head sharding) and the
// output projection row-parallel, so per-layer communication is exactly one
// all-reduce forward and one backward — the attention half of the "four
// communications per transformer layer" of §5.2.
func ShardAttention(seq *model.Attention, ctx *Ctx) *model.Attention {
	tpSize := ctx.Size()
	if seq.NHeads%tpSize != 0 || seq.NKVHeads%tpSize != 0 {
		panic(fmt.Sprintf("tp: heads (%d q, %d kv) not divisible by tp=%d", seq.NHeads, seq.NKVHeads, tpSize))
	}
	get := func(l model.Layer) *tensor.Tensor { return l.(*model.Linear).P.W }
	name := func(l model.Layer) string { return l.(*model.Linear).P.Name }
	return &model.Attention{
		NHeads:   seq.NHeads / tpSize,
		NKVHeads: seq.NKVHeads / tpSize,
		HeadDim:  seq.HeadDim,
		Rope:     seq.Rope,
		Wq:       NewColParallelFromFull(name(seq.Wq), get(seq.Wq), ctx, false),
		Wk:       NewColParallelFromFull(name(seq.Wk), get(seq.Wk), ctx, false),
		Wv:       NewColParallelFromFull(name(seq.Wv), get(seq.Wv), ctx, false),
		Wo:       NewRowParallelFromFull(name(seq.Wo), get(seq.Wo), ctx),
	}
}

// ShardFFN builds the TP-sharded equivalent of a sequential SwiGLU FFN:
// gate/up column-parallel, down row-parallel.
func ShardFFN(seq *model.FFN, ctx *Ctx) *model.FFN {
	get := func(l model.Layer) *tensor.Tensor { return l.(*model.Linear).P.W }
	name := func(l model.Layer) string { return l.(*model.Linear).P.Name }
	return &model.FFN{
		W1: NewColParallelFromFull(name(seq.W1), get(seq.W1), ctx, false),
		W3: NewColParallelFromFull(name(seq.W3), get(seq.W3), ctx, false),
		W2: NewRowParallelFromFull(name(seq.W2), get(seq.W2), ctx),
	}
}

// ShardBlock builds the TP-sharded equivalent of a transformer block.
// RMSNorm gains are replicated (their gradients must be all-reduced across
// TP at step time; see ReplicatedGradAllReduce).
func ShardBlock(seq *model.Block, ctx *Ctx) *model.Block {
	norm := func(n *model.RMSNorm) *model.RMSNorm {
		return &model.RMSNorm{P: model.NewParam(n.P.Name, n.P.W.Clone()), Eps: n.Eps}
	}
	return &model.Block{
		Norm1:     norm(seq.Norm1),
		Attn:      ShardAttention(seq.Attn, ctx),
		Norm2:     norm(seq.Norm2),
		FFN:       ShardFFN(seq.FFN, ctx),
		Frozen:    seq.Frozen,
		Recompute: seq.Recompute,
	}
}

// ReplicatedGradAllReduce averages the gradients of TP-replicated parameters
// (RMSNorm gains, embeddings) across the TP group. Because each TP rank saw
// identical activations, their gradients are identical up to rounding; the
// all-reduce keeps replicas bitwise aligned. Reference surface: no non-test
// code calls it; its caller is this package's multi-step alignment test.
func ReplicatedGradAllReduce(ctx *Ctx, params []*model.Param) {
	for _, p := range params {
		red := ctx.Group.AllReduce(ctx.Rank, p.G)
		red.Scale(1 / float32(ctx.Size()))
		copy(p.G.Data, red.Data)
		tensor.Put(red)
	}
}
