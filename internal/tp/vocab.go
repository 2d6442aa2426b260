package tp

import (
	"fmt"
	"math"

	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// Vocabulary parallelism shards the two largest matrices of the model — the
// token embedding table and the output projection — by vocabulary rows
// across the TP group. With Llama 3's 128K vocabulary this is what keeps
// the first and last pipeline ranks within memory (§3.1.2's imbalance is
// what remains *after* this sharding).

// VocabParallelEmbedding holds rows [lo, hi) of the [vocab, dim] table.
// Lookups of non-owned tokens contribute zeros; an all-reduce across the TP
// group assembles the full embedding.
type VocabParallelEmbedding struct {
	P      *model.Param // [vocab/tp, dim]
	Ctx    *Ctx
	lo, hi int
}

// NewVocabParallelEmbeddingFromFull shards a full embedding table.
func NewVocabParallelEmbeddingFromFull(name string, full *tensor.Tensor, ctx *Ctx) *VocabParallelEmbedding {
	vocab := full.Rows()
	tpSize := ctx.Size()
	if vocab%tpSize != 0 {
		panic(fmt.Sprintf("tp: vocab %d not divisible by tp=%d", vocab, tpSize))
	}
	per := vocab / tpSize
	lo := ctx.Local() * per
	shard := full.RowSlice(lo, lo+per).Clone()
	return &VocabParallelEmbedding{P: model.NewParam(name, shard), Ctx: ctx, lo: lo, hi: lo + per}
}

// Forward implements model.TokenEmbedder.
func (e *VocabParallelEmbedding) Forward(tokens []int) (*tensor.Tensor, any) {
	dim := e.P.W.Cols()
	local := tensor.Get(len(tokens), dim)
	for i, t := range tokens {
		if t >= e.lo && t < e.hi {
			copy(local.Row(i), e.P.W.Row(t-e.lo))
		}
	}
	out := e.Ctx.Group.AllReduce(e.Ctx.Rank, local)
	tensor.Put(local)
	return out, tokens
}

// Backward implements model.TokenEmbedder: each rank accumulates gradients
// only for its owned token rows (dy is identical across the TP group).
func (e *VocabParallelEmbedding) Backward(ctx any, dy *tensor.Tensor) {
	tokens := ctx.([]int)
	for i, t := range tokens {
		if t < e.lo || t >= e.hi {
			continue
		}
		gi := e.P.G.Row(t - e.lo)
		di := dy.Row(i)
		for j := range gi {
			gi[j] += di[j]
		}
	}
}

// Params implements model.TokenEmbedder.
func (e *VocabParallelEmbedding) Params() []*model.Param { return []*model.Param{e.P} }

// VocabParallelHead is the output head with a vocabulary-sharded projection
// and a distributed softmax cross-entropy: each rank computes logits for its
// vocabulary slice; the global row max and exp-sum come from two
// all-reduces (max, then sum), and the target's logit from a third —
// the Megatron-LM parallel cross-entropy.
type VocabParallelHead struct {
	Norm *model.RMSNorm
	Proj *model.Param // [dim, vocab/tp]
	Ctx  *Ctx
	lo   int // first vocabulary id owned
}

// NewVocabParallelHeadFromFull shards a sequential head.
func NewVocabParallelHeadFromFull(h *model.Head, ctx *Ctx) *VocabParallelHead {
	tpSize := ctx.Size()
	vocab := h.Proj.P.W.Cols()
	if vocab%tpSize != 0 {
		panic(fmt.Sprintf("tp: vocab %d not divisible by tp=%d", vocab, tpSize))
	}
	norm := model.NewRMSNorm(h.Norm.P.Name, h.Norm.P.W.Len())
	copy(norm.P.W.Data, h.Norm.P.W.Data)
	shard := tensor.ColBlock(h.Proj.P.W, tpSize, ctx.Local())
	return &VocabParallelHead{
		Norm: norm,
		Proj: model.NewParam(h.Proj.P.Name, shard),
		Ctx:  ctx,
		lo:   ctx.Local() * vocab / tpSize,
	}
}

type vocabHeadCtx struct {
	nCtx    any
	normed  *tensor.Tensor
	probs   *tensor.Tensor // local-slice softmax probabilities
	targets []int
	scale   float32
}

// ForwardLoss implements model.LossHead. Rows with target < 0 are ignored.
func (h *VocabParallelHead) ForwardLoss(x *tensor.Tensor, targets []int, scale float32, env *model.Env) (float64, any) {
	n, c1 := h.Norm.Forward(x, env)
	logits := tensor.MatMul(n, h.Proj.W) // [rows, vocab/tp]
	rows := logits.Rows()

	// Distributed softmax: global max, then global exp-sum.
	localMax := tensor.GetUninit(rows)
	for i := 0; i < rows; i++ {
		m := float32(math.Inf(-1))
		for _, v := range logits.Row(i) {
			if v > m {
				m = v
			}
		}
		localMax.Data[i] = m
	}
	globalMax := h.Ctx.Group.AllReduceMax(h.Ctx.Rank, localMax)
	tensor.Put(localMax)

	sumExp := tensor.GetUninit(rows)
	for i := 0; i < rows; i++ {
		row := logits.Row(i)
		tensor.ExpShift(row, globalMax.Data[i]) // logits now hold local exp values
		var s float32
		for _, e := range row {
			s += e
		}
		sumExp.Data[i] = s
	}
	globalSum := h.Ctx.Group.AllReduce(h.Ctx.Rank, sumExp)
	tensor.Put(sumExp, globalMax)

	// Normalise into local probabilities; fetch the target's probability
	// from whichever rank owns it.
	localProb := tensor.Get(rows)
	vocabLocal := h.Proj.W.Cols()
	for i := 0; i < rows; i++ {
		inv := 1 / globalSum.Data[i]
		row := logits.Row(i)
		for j := range row {
			row[j] *= inv
		}
		t := targets[i]
		if t >= h.lo && t < h.lo+vocabLocal {
			localProb.Data[i] = row[t-h.lo]
		}
	}
	targetProb := h.Ctx.Group.AllReduce(h.Ctx.Rank, localProb)
	tensor.Put(localProb, globalSum)

	var loss float64
	count := 0
	for i, t := range targets {
		if t < 0 {
			continue
		}
		p := float64(targetProb.Data[i])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		count++
	}
	if count > 0 {
		loss /= float64(count)
	}
	tensor.Put(targetProb)
	if count == 0 {
		count = 1
	}
	return loss, &vocabHeadCtx{
		nCtx: c1, normed: n, probs: logits,
		targets: targets, scale: scale / float32(count),
	}
}

// BackwardLoss implements model.LossHead: dLogits_local = scale·(p − onehot)
// restricted to the local vocabulary slice.
func (h *VocabParallelHead) BackwardLoss(ctxAny any) *tensor.Tensor {
	ctx := ctxAny.(*vocabHeadCtx)
	dLogits := ctx.probs.Clone()
	vocabLocal := h.Proj.W.Cols()
	for i, t := range ctx.targets {
		row := dLogits.Row(i)
		if t < 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		if t >= h.lo && t < h.lo+vocabLocal {
			row[t-h.lo] -= 1
		}
		for j := range row {
			row[j] *= ctx.scale
		}
	}
	tensor.TMatMulAcc(h.Proj.G, ctx.normed, dLogits)
	dnPartial := tensor.MatMulT(dLogits, h.Proj.W)
	tensor.Put(dLogits, ctx.probs, ctx.normed)
	ctx.probs, ctx.normed = nil, nil
	// The input was replicated across the TP group: sum the partial dx.
	dn := h.Ctx.Group.AllReduce(h.Ctx.Rank, dnPartial)
	tensor.Put(dnPartial)
	dx := h.Norm.Backward(ctx.nCtx, dn)
	tensor.Put(dn)
	return dx
}

// Params implements model.LossHead.
func (h *VocabParallelHead) Params() []*model.Param {
	return []*model.Param{h.Norm.P, h.Proj}
}
