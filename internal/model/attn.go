package model

import (
	"fmt"
	"math/rand"
	"runtime"

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
	concat                 *tensor.Tensor   // the heads' outputs, Wo's saved input
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
	w, src := t.Cols(), t.Data[h*hd:]
	for i, o := 0, 0; o < len(dst.Data); i, o = i+w, o+hd {
		copy(dst.Data[o:o+hd], src[i:i+hd])
	}
}

// addHeadCols accumulates src into the column block of head h of dst.
func addHeadCols(dst, src *tensor.Tensor, h, hd int) {
	w, dd := dst.Cols(), dst.Data[h*hd:]
	for i, o := 0, 0; o < len(src.Data); i, o = i+w, o+hd {
		di, si := dd[i:i+hd], src.Data[o:o+hd]
		for j := range di {
			di[j] += si[j]
		}
	}
}

// headWorkers is how many goroutines an attention call's heads split over:
// tensor.Workers for sweeps sweeps of g per head, summed over the heads.
func headWorkers(g *attention.Grid, nHeads, sweeps, hd int) int {
	return tensor.Workers(nHeads, nHeads*sweeps*hd*int(g.TotalPairs()-g.EmptyPairs))
}

// QKV is the forward-only first half of Forward over an input the caller is
// done with (a block's normed hidden state): x is released as soon as the
// three projections have read it, Q and K are rotated by ropePos, nothing
// is saved. The K and V projections are independent products: when each is
// too small to split its own rows (tensor.Workers), the two run side by side
// on up to two cores. Caller owns all three results.
func (a *Attention) QKV(x *tensor.Tensor, ropePos []int) (q, k, v *tensor.Tensor) {
	q0, _ := a.Wq.Forward(x, nil)
	var k0 *tensor.Tensor
	side := 1
	if tensor.Workers(x.Rows(), x.Rows()*x.Cols()*a.NKVHeads*a.HeadDim) == 1 {
		side = min(2, runtime.GOMAXPROCS(0))
	}
	tensor.ParallelRows(2, side, func(lo, hi int) {
		if lo == 0 {
			k0, _ = a.Wk.Forward(x, nil)
		}
		if hi == 2 {
			v, _ = a.Wv.Forward(x, nil)
		}
	})
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
	q, k = a.Rope.Apply(q0, k0, pos)
	tensor.Put(q0, k0) // pre-RoPE projections are dead once rotated
	return q, k
}

// MultiHead is the one multi-head GQA routine, shared by training, serving
// and cross-attention: each of nHeads query heads gathers its column block
// of q and of the K/V head its group shares (k and v carry
// k.Cols()/headDim heads), runs the attention kernel under mask with the
// rows at qPos, and adds its output into its column block of the returned
// [q.Rows(), q.Cols()] tensor. Heads split over goroutines (headWorkers),
// one serial kernel pass each into its worker's output buffer; the census
// folds in after the join, in increasing head order. probs, when non-nil,
// receives every head's probability plane for MultiHeadBackward, defined on
// the grid's non-empty tiles only; a forward-only caller passes nil and
// each worker reuses one plane for all its heads. Caller owns the pooled
// result.
func MultiHead(q, k, v *tensor.Tensor, nHeads int, mask attention.Mask, qPos []int, rec *attention.Recorder, probs []*tensor.Tensor) *tensor.Tensor {
	hd := q.Cols() / nHeads
	group := nHeads / (k.Cols() / hd)
	g := attention.BuildGrid(mask, qPos, 0, k.Rows())
	// Zeroed Get + addHeadCols (rather than a copy) keeps the accumulate
	// semantics of the unpooled version, signed zeros included. Every
	// element takes exactly one add, from its own head's worker, so the
	// fold's place and order cannot change a bit.
	concat := tensor.Get(q.Rows(), q.Cols())
	recs := make([]attention.Recorder, nHeads)
	tensor.ParallelRows(nHeads, headWorkers(g, nHeads, 2, hd), func(lo, hi int) {
		qh, kh, vh := tensor.GetUninit(q.Rows(), hd), tensor.GetUninit(k.Rows(), hd), tensor.GetUninit(v.Rows(), hd)
		oh := tensor.GetUninit(q.Rows(), hd)
		var s *tensor.Tensor
		for h := lo; h < hi; h++ {
			headColsInto(qh, q, h, hd)
			if h == lo || h%group == 0 { // a new group: load its shared K/V head
				headColsInto(kh, k, h/group, hd)
				headColsInto(vh, v, h/group, hd)
			}
			if s == nil || probs != nil {
				s = tensor.GetUninit(q.Rows(), k.Rows())
			}
			attention.ForwardRecorded(oh, s, qh, kh, vh, mask, qPos, 0, g, &recs[h])
			addHeadCols(concat, oh, h, hd)
			if probs != nil {
				probs[h] = s
			}
		}
		if probs == nil {
			tensor.Put(s)
		}
		tensor.Put(qh, kh, vh, oh)
	})
	for h := range recs {
		rec.Add(&recs[h])
	}
	return concat
}

// MultiHeadBackward back-propagates MultiHead through the planes it kept
// (one per head, released here): dConcat is the gradient of its result, and
// the returned dq, dk, dv have the shapes of q, k, v — the query heads of a
// group accumulate into their shared K/V head, after the join, in increasing
// head order: the adds of a serial head loop.
func MultiHeadBackward(q, k, v, dConcat *tensor.Tensor, probs []*tensor.Tensor, mask attention.Mask, qPos []int, rec *attention.Recorder) (dq, dk, dv *tensor.Tensor) {
	nHeads := len(probs)
	hd := q.Cols() / nHeads
	group := nHeads / (k.Cols() / hd)
	g := attention.BuildGrid(mask, qPos, 0, k.Rows())
	grads, recs := make([][3]*tensor.Tensor, nHeads), make([]attention.Recorder, nHeads)
	tensor.ParallelRows(nHeads, headWorkers(g, nHeads, 4, hd), func(lo, hi int) {
		qh, kh, vh := tensor.GetUninit(q.Rows(), hd), tensor.GetUninit(k.Rows(), hd), tensor.GetUninit(v.Rows(), hd)
		dOh := tensor.GetUninit(q.Rows(), hd)
		for h := lo; h < hi; h++ {
			headColsInto(qh, q, h, hd)
			if h == lo || h%group == 0 {
				headColsInto(kh, k, h/group, hd)
				headColsInto(vh, v, h/group, hd)
			}
			headColsInto(dOh, dConcat, h, hd)
			dqh, dkh, dvh := attention.BackwardRecorded(qh, kh, vh, probs[h], dOh, g, &recs[h])
			grads[h] = [3]*tensor.Tensor{dqh, dkh, dvh}
			tensor.Put(probs[h])
			probs[h] = nil
		}
		tensor.Put(qh, kh, vh, dOh)
	})
	dq, dk, dv = tensor.Get(q.Rows(), q.Cols()), tensor.Get(k.Rows(), k.Cols()), tensor.Get(v.Rows(), v.Cols())
	for h, gr := range grads {
		rec.Add(&recs[h])
		addHeadCols(dq, gr[0], h, hd)
		addHeadCols(dk, gr[1], h/group, hd)
		addHeadCols(dv, gr[2], h/group, hd)
		tensor.Put(gr[:]...)
	}
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
	ctx.concat = MultiHead(q, ctx.kFull, ctx.vFull, a.NHeads, env.Mask, env.QPos, env.Rec, ctx.probs)
	y, oCtx := a.Wo.Forward(ctx.concat, env)
	ctx.oCtx = oCtx
	return y, ctx
}

// forwardStreamed is the KVStreamer fast path of Forward: one tile grid is
// built for the full sequence, each head's score plane fills incrementally
// from the exchange callback (only non-empty tiles are swept), and the
// blocked softmax + P·V finish once assembly completes, heads split as in
// MultiHead. Per-head planes, outputs, FLOP counts and the tile census are
// identical to the gather-then-attend path's, so Backward is oblivious to
// how K/V arrived.
func (a *Attention) forwardStreamed(x, q, k, v *tensor.Tensor, ks KVStreamer, env *Env, ctx *attnCtx) (*tensor.Tensor, any) {
	seq := ks.SeqLen()
	sq, nH, hd := x.Rows(), a.NHeads, a.HeadDim
	g := attention.BuildGrid(env.Mask, env.QPos, 0, seq)
	group := nH / a.NKVHeads
	ctx.probs = make([]*tensor.Tensor, nH)
	qhs := make([]*tensor.Tensor, nH)
	for h := range qhs {
		qhs[h] = headCols(q, h, hd)
		ctx.probs[h] = tensor.GetUninit(sq, seq)
	}
	ctx.kFull, ctx.vFull = ks.StreamKV(k, v, func(kBlk, _ *tensor.Tensor, runs []PosRun) {
		for h := 0; h < nH; h++ {
			kvOff := (h / group) * hd
			for _, run := range runs {
				attention.StreamScores(ctx.probs[h], qhs[h], kBlk, kvOff, run.Off, run.Start, run.Rows, g)
			}
		}
	})
	tensor.Put(k, v) // local chunks are dead once circulated

	outs, recs := make([]*attention.Output, nH), make([]attention.Recorder, nH)
	tensor.ParallelRows(nH, headWorkers(g, nH, 1, hd), func(lo, hi int) {
		vh := tensor.GetUninit(seq, hd)
		for h := lo; h < hi; h++ {
			if h == lo || h%group == 0 {
				headColsInto(vh, ctx.vFull, h/group, hd)
			}
			outs[h] = attention.StreamFinish(ctx.probs[h], vh, env.Mask, env.QPos, g, &recs[h])
		}
		tensor.Put(vh)
	})
	ctx.concat = tensor.Get(sq, nH*hd)
	for h, out := range outs {
		env.Rec.Add(&recs[h])
		addHeadCols(ctx.concat, out.O, h, hd) // out.P aliases ctx.probs[h]
		tensor.Put(out.O, qhs[h])
	}

	y, oCtx := a.Wo.Forward(ctx.concat, env)
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

	dqRot, dkRot := a.Rope.ApplyGrad(dq, dk, env.QPos)
	tensor.Put(dq, dk)

	dx := a.Wq.Backward(ctx.qCtx, dqRot)
	tk := a.Wk.Backward(ctx.kCtx, dkRot)
	dx.Add(tk)
	tv := a.Wv.Backward(ctx.vCtx, dv)
	dx.Add(tv)
	tensor.Put(dqRot, dkRot, dv, tk, tv)
	tensor.Put(ctx.qRot, ctx.kFull, ctx.vFull, ctx.concat)
	ctx.qRot, ctx.kFull, ctx.vFull, ctx.concat = nil, nil, nil, nil
	return dx
}

// Params implements Layer.
func (a *Attention) Params() []*Param {
	return CollectParams(a.Wq, a.Wk, a.Wv, a.Wo)
}
