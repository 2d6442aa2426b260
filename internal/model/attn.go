package model

import (
	"fmt"
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/tensor"
)

// Attention is a grouped-query attention (GQA) block. NHeads and NKVHeads
// are the *local* head counts: under tensor parallelism the constructor in
// the tp package divides them by the TP degree and substitutes
// column/row-parallel projections, leaving this module unchanged — the
// Megatron-style head sharding of §2.1.
type Attention struct {
	NHeads   int
	NKVHeads int
	HeadDim  int
	Rope     RoPE

	Wq, Wk, Wv, Wo Layer
}

// NewAttention builds a sequential (non-parallel) GQA block.
func NewAttention(name string, dim, nHeads, nKVHeads, headDim int, ropeBase float64, rng *rand.Rand) *Attention {
	return &Attention{
		NHeads:   nHeads,
		NKVHeads: nKVHeads,
		HeadDim:  headDim,
		Rope:     RoPE{HeadDim: headDim, Base: ropeBase},
		Wq:       NewLinear(name+".wq", dim, nHeads*headDim, rng),
		Wk:       NewLinear(name+".wk", dim, nKVHeads*headDim, rng),
		Wv:       NewLinear(name+".wv", dim, nKVHeads*headDim, rng),
		Wo:       NewLinear(name+".wo", nHeads*headDim, dim, rng),
	}
}

type attnCtx struct {
	env                    *Env
	qCtx, kCtx, vCtx, oCtx any
	qRot                   *tensor.Tensor   // post-RoPE local queries [rows, nH*hd]
	kFull                  *tensor.Tensor   // post-RoPE full-sequence keys [fullSeq, nKV*hd]
	vFull                  *tensor.Tensor   // full-sequence values
	probs                  []*tensor.Tensor // per local head
}

// headCols copies the column block of head h (width hd) out of t.
func headCols(t *tensor.Tensor, h, hd int) *tensor.Tensor {
	out := tensor.GetUninit(t.Rows(), hd)
	headColsInto(out, t, h, hd)
	return out
}

// headColsInto copies the column block of head h (width hd) of t into dst.
func headColsInto(dst, t *tensor.Tensor, h, hd int) {
	rows := t.Rows()
	w := t.Cols()
	for i := 0; i < rows; i++ {
		copy(dst.Row(i), t.Data[i*w+h*hd:i*w+h*hd+hd])
	}
}

// addHeadCols accumulates src into the column block of head h of dst.
func addHeadCols(dst, src *tensor.Tensor, h, hd int) {
	rows := dst.Rows()
	w := dst.Cols()
	for i := 0; i < rows; i++ {
		di := dst.Data[i*w+h*hd : i*w+h*hd+hd]
		si := src.Row(i)
		for j := range di {
			di[j] += si[j]
		}
	}
}

// QKV is the forward-only first half of Forward over an input the caller is
// done with (a block's normed hidden state): x is released as soon as the
// three projections have read it, Q and K are rotated by ropePos, nothing
// is saved. Caller owns all three results.
func (a *Attention) QKV(x *tensor.Tensor, ropePos []int) (q, k, v *tensor.Tensor) {
	q0, k0, v := a.project(x, nil, &attnCtx{})
	tensor.Put(x)
	q, k = a.rotate(q0, k0, ropePos)
	return q, k, v
}

// project runs the three input projections; the linears' contexts land in ctx.
func (a *Attention) project(x *tensor.Tensor, env *Env, ctx *attnCtx) (q0, k0, v *tensor.Tensor) {
	q0, ctx.qCtx = a.Wq.Forward(x, env)
	k0, ctx.kCtx = a.Wk.Forward(x, env)
	v, ctx.vCtx = a.Wv.Forward(x, env)
	return q0, k0, v
}

// rotate applies RoPE to the Q and K projections and releases them.
func (a *Attention) rotate(q0, k0 *tensor.Tensor, pos []int) (q, k *tensor.Tensor) {
	q = a.Rope.Apply(q0, pos)
	k = a.Rope.Apply(k0, pos)
	tensor.Put(q0, k0) // pre-RoPE projections are dead once rotated
	return q, k
}

// MultiHead is the one multi-head GQA routine, shared by training, serving
// and cross-attention: each of nHeads query heads gathers its column block
// of q and of the K/V head its group shares (k and v carry
// k.Cols()/headDim heads), runs the attention kernel under mask with the
// rows at qPos, and accumulates its output into its column block of the
// returned [q.Rows(), q.Cols()] tensor. probs, when non-nil, receives every
// head's probability plane for MultiHeadBackward; a forward-only caller
// passes nil and the planes are released. Caller owns the pooled result.
func MultiHead(q, k, v *tensor.Tensor, nHeads int, mask attention.Mask, qPos []int, rec *attention.Recorder, probs []*tensor.Tensor) *tensor.Tensor {
	hd := q.Cols() / nHeads
	group := nHeads / (k.Cols() / hd)
	// Zeroed Get + addHeadCols (rather than a copy) keeps the accumulate
	// semantics of the unpooled version, signed zeros included.
	concat := tensor.Get(q.Rows(), q.Cols())
	qh := tensor.GetUninit(q.Rows(), hd)
	kh := tensor.GetUninit(k.Rows(), hd)
	vh := tensor.GetUninit(v.Rows(), hd)
	for h := 0; h < nHeads; h++ {
		headColsInto(qh, q, h, hd)
		if h%group == 0 { // first query head of a group: load its shared K/V head
			headColsInto(kh, k, h/group, hd)
			headColsInto(vh, v, h/group, hd)
		}
		out := attention.ForwardRecorded(qh, kh, vh, mask, qPos, 0, rec)
		addHeadCols(concat, out.O, h, hd)
		tensor.Put(out.O)
		if probs != nil {
			probs[h] = out.P
		} else {
			tensor.Put(out.P)
		}
	}
	tensor.Put(qh, kh, vh)
	return concat
}

// MultiHeadBackward back-propagates MultiHead through the planes it kept
// (one per head, released here): dConcat is the gradient of its result, and
// the returned dq, dk, dv have the shapes of q, k, v — the query heads of a
// group accumulate into their shared K/V head.
func MultiHeadBackward(q, k, v, dConcat *tensor.Tensor, probs []*tensor.Tensor, mask attention.Mask, qPos []int, rec *attention.Recorder) (dq, dk, dv *tensor.Tensor) {
	nHeads := len(probs)
	hd := q.Cols() / nHeads
	group := nHeads / (k.Cols() / hd)
	dq = tensor.Get(q.Rows(), q.Cols())
	dk = tensor.Get(k.Rows(), k.Cols())
	dv = tensor.Get(v.Rows(), v.Cols())
	qh := tensor.GetUninit(q.Rows(), hd)
	kh := tensor.GetUninit(k.Rows(), hd)
	vh := tensor.GetUninit(v.Rows(), hd)
	dOh := tensor.GetUninit(q.Rows(), hd)
	for h := 0; h < nHeads; h++ {
		headColsInto(qh, q, h, hd)
		kv := h / group
		if h%group == 0 {
			headColsInto(kh, k, kv, hd)
			headColsInto(vh, v, kv, hd)
		}
		headColsInto(dOh, dConcat, h, hd)
		dqh, dkh, dvh := attention.BackwardRecorded(qh, kh, vh, probs[h], dOh, mask, qPos, 0, rec)
		addHeadCols(dq, dqh, h, hd)
		addHeadCols(dk, dkh, kv, hd)
		addHeadCols(dv, dvh, kv, hd)
		tensor.Put(dqh, dkh, dvh, probs[h])
		probs[h] = nil
	}
	tensor.Put(qh, kh, vh, dOh)
	return dq, dk, dv
}

// Forward implements Layer.
func (a *Attention) Forward(x *tensor.Tensor, env *Env) (*tensor.Tensor, any) {
	if env == nil {
		panic("model: attention requires an Env (mask and positions)")
	}
	if len(env.QPos) != x.Rows() {
		panic(fmt.Sprintf("model: %d positions for %d rows", len(env.QPos), x.Rows()))
	}
	ctx := &attnCtx{env: env}
	q0, k0, v := a.project(x, env, ctx)
	q, k := a.rotate(q0, k0, env.QPos)
	ctx.qRot = q

	if env.KV != nil {
		if ks, ok := env.KV.(KVStreamer); ok && ks.Streams() {
			// The exchange rings at least one document: stream score
			// columns as K/V blocks arrive, hiding each block's transfer
			// behind the previous block's compute. Bitwise identical to
			// gather-then-attend (attention.StreamScores/StreamFinish).
			return a.forwardStreamed(x, q, k, v, ks, env, ctx)
		}
		// Context parallelism: all-gather the full-sequence K/V (§4).
		ctx.kFull, ctx.vFull = env.KV.GatherKV(k, v)
		tensor.Put(k, v) // local chunks are dead once gathered
	} else {
		ctx.kFull, ctx.vFull = k, v
	}

	ctx.probs = make([]*tensor.Tensor, a.NHeads)
	concat := MultiHead(q, ctx.kFull, ctx.vFull, a.NHeads, env.Mask, env.QPos, env.Rec, ctx.probs)
	y, oCtx := a.Wo.Forward(concat, env)
	ctx.oCtx = oCtx
	return y, ctx
}

// forwardStreamed is the KVStreamer fast path of Forward: one tile grid is
// built for the full sequence, each head's score plane fills incrementally
// from the exchange callback (only non-empty tiles are swept), and the
// blocked softmax + P·V finish once assembly completes. Per-head probability
// planes, outputs, FLOP counts and the tile census are all identical to the
// gather-then-attend path, so Backward is oblivious to how K/V arrived.
func (a *Attention) forwardStreamed(x, q, k, v *tensor.Tensor, ks KVStreamer, env *Env, ctx *attnCtx) (*tensor.Tensor, any) {
	seq := ks.SeqLen()
	sq := x.Rows()
	g := attention.BuildGrid(env.Mask, env.QPos, 0, seq)
	group := a.NHeads / a.NKVHeads
	ctx.probs = make([]*tensor.Tensor, a.NHeads)
	qhs := make([]*tensor.Tensor, a.NHeads)
	for h := range qhs {
		qhs[h] = headCols(q, h, a.HeadDim)
		ctx.probs[h] = tensor.Get(sq, seq) // zeroed: empty tiles stay exact +0
	}
	ctx.kFull, ctx.vFull = ks.StreamKV(k, v, func(kBlk, _ *tensor.Tensor, runs []PosRun) {
		for h := 0; h < a.NHeads; h++ {
			kvOff := (h / group) * a.HeadDim
			for _, run := range runs {
				attention.StreamScores(ctx.probs[h], qhs[h], kBlk, kvOff, run.Off, run.Start, run.Rows, g)
			}
		}
	})
	tensor.Put(k, v) // local chunks are dead once circulated

	concat := tensor.Get(sq, a.NHeads*a.HeadDim)
	vh := tensor.GetUninit(seq, a.HeadDim)
	for h := 0; h < a.NHeads; h++ {
		headColsInto(vh, ctx.vFull, h/group, a.HeadDim)
		out := attention.StreamFinish(ctx.probs[h], vh, env.Mask, env.QPos, g, env.Rec)
		addHeadCols(concat, out.O, h, a.HeadDim) // out.P aliases ctx.probs[h]
		tensor.Put(out.O, qhs[h])
	}
	tensor.Put(vh)

	y, oCtx := a.Wo.Forward(concat, env)
	ctx.oCtx = oCtx
	return y, ctx
}

// Backward implements Layer.
func (a *Attention) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*attnCtx)
	env := ctx.env

	dConcat := a.Wo.Backward(ctx.oCtx, dy)

	dq, dKFull, dVFull := MultiHeadBackward(ctx.qRot, ctx.kFull, ctx.vFull, dConcat, ctx.probs, env.Mask, env.QPos, env.Rec)
	tensor.Put(dConcat)

	var dk, dv *tensor.Tensor
	if env.KV != nil {
		// Reduce-scatter the full-sequence KV gradients back to local chunks.
		dk, dv = env.KV.ReduceKVGrad(dKFull, dVFull)
		tensor.Put(dKFull, dVFull)
	} else {
		dk, dv = dKFull, dVFull
	}

	dqRot := a.Rope.ApplyGrad(dq, env.QPos)
	dkRot := a.Rope.ApplyGrad(dk, env.QPos)
	tensor.Put(dq, dk)

	dx := a.Wq.Backward(ctx.qCtx, dqRot)
	tk := a.Wk.Backward(ctx.kCtx, dkRot)
	dx.Add(tk)
	tv := a.Wv.Backward(ctx.vCtx, dv)
	dx.Add(tv)
	tensor.Put(dqRot, dkRot, dv, tk, tv)
	tensor.Put(ctx.qRot, ctx.kFull, ctx.vFull)
	ctx.qRot, ctx.kFull, ctx.vFull = nil, nil, nil
	return dx
}

// Params implements Layer.
func (a *Attention) Params() []*Param {
	return CollectParams(a.Wq, a.Wk, a.Wv, a.Wo)
}
