package model

import (
	"math"
	"math/rand"

	"llama4d/internal/tensor"
)

// FFN is the SwiGLU feed-forward network of Llama:
// y = W2(silu(W1·x) ∘ W3·x). Under tensor parallelism the tp package
// substitutes W1/W3 with column-parallel and W2 with row-parallel linears.
type FFN struct {
	W1 Layer // gate projection [dim, hidden]
	W3 Layer // up projection   [dim, hidden]
	W2 Layer // down projection [hidden, dim]
}

// NewFFN builds a sequential SwiGLU FFN.
func NewFFN(name string, dim, hidden int, rng *rand.Rand) *FFN {
	return &FFN{
		W1: NewLinear(name+".w1", dim, hidden, rng),
		W3: NewLinear(name+".w3", dim, hidden, rng),
		W2: NewLinear(name+".w2", hidden, dim, rng),
	}
}

type ffnCtx struct {
	a, b, h    *tensor.Tensor // gate pre-activation, up projection, silu(a)∘b
	c1, c3, c2 any
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// swiglu is the activation silu(a) ∘ b; it consumes neither operand.
func swiglu(a, b *tensor.Tensor) *tensor.Tensor {
	h := tensor.GetUninit(a.Rows(), a.Cols())
	for i, av := range a.Data {
		h.Data[i] = av * sigmoid(av) * b.Data[i]
	}
	return h
}

// Forward implements Layer.
func (f *FFN) Forward(x *tensor.Tensor, env *Env) (*tensor.Tensor, any) {
	ctx := &ffnCtx{}
	ctx.a, ctx.c1 = f.W1.Forward(x, env)
	ctx.b, ctx.c3 = f.W3.Forward(x, env)
	ctx.h = swiglu(ctx.a, ctx.b) // retained: W2's backward reads it through c2
	y, c2 := f.W2.Forward(ctx.h, env)
	ctx.c2 = c2
	return y, ctx
}

// Hidden is the forward-only first half of Forward, silu(W1·x) ∘ W3·x, with
// both projections released; the caller applies W2 (serve's decode issues
// that product's TP sum itself) and owns the pooled result.
func (f *FFN) Hidden(x *tensor.Tensor) *tensor.Tensor {
	a, _ := f.W1.Forward(x, nil)
	b, _ := f.W3.Forward(x, nil)
	h := swiglu(a, b)
	tensor.Put(a, b)
	return h
}

// Backward implements Layer.
func (f *FFN) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*ffnCtx)
	dh := f.W2.Backward(ctx.c2, dy)
	da := tensor.GetUninit(dh.Rows(), dh.Cols())
	db := tensor.GetUninit(dh.Rows(), dh.Cols())
	for i := range dh.Data {
		a := ctx.a.Data[i]
		s := sigmoid(a)
		silu := a * s
		dSilu := s * (1 + a*(1-s))
		da.Data[i] = dh.Data[i] * ctx.b.Data[i] * dSilu
		db.Data[i] = dh.Data[i] * silu
	}
	tensor.Put(dh)
	dx := f.W1.Backward(ctx.c1, da)
	t3 := f.W3.Backward(ctx.c3, db)
	dx.Add(t3)
	tensor.Put(t3, da, db, ctx.a, ctx.b, ctx.h)
	ctx.a, ctx.b, ctx.h = nil, nil, nil
	return dx
}

// Params implements Layer.
func (f *FFN) Params() []*Param { return CollectParams(f.W1, f.W3, f.W2) }
