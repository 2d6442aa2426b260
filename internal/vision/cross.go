package vision

import (
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// CrossAttention attends text-side queries over image tokens (Fig 5's
// cross-attention architecture): Q projects from the text hidden state,
// K/V from the encoder output.
type CrossAttention struct {
	NHeads  int
	HeadDim int
	Wq      *model.Linear // [textDim, nh·hd]
	Wk      *model.Linear // [encDim, nh·hd]
	Wv      *model.Linear // [encDim, nh·hd]
	Wo      *model.Linear // [nh·hd, textDim]
}

// NewCrossAttention builds the projection set.
func NewCrossAttention(name string, textDim, encDim, nHeads, headDim int, rng *rand.Rand) *CrossAttention {
	return &CrossAttention{
		NHeads: nHeads, HeadDim: headDim,
		Wq: model.NewLinear(name+".wq", textDim, nHeads*headDim, rng),
		Wk: model.NewLinear(name+".wk", encDim, nHeads*headDim, rng),
		Wv: model.NewLinear(name+".wv", encDim, nHeads*headDim, rng),
		Wo: model.NewLinear(name+".wo", nHeads*headDim, textDim, rng),
	}
}

// Params returns the projections' parameters.
func (c *CrossAttention) Params() []*model.Param {
	return model.CollectParams(c.Wq, c.Wk, c.Wv, c.Wo)
}

type xattnCtx struct {
	qc, kc, vc, oc any
	q, k, v        *tensor.Tensor
	probs          []*tensor.Tensor
}

// Forward computes cross-attention of text rows x over image tokens img.
func (c *CrossAttention) Forward(x, img *tensor.Tensor) (*tensor.Tensor, any) {
	ctx := &xattnCtx{}
	var q, k, v *tensor.Tensor
	q, ctx.qc = c.Wq.Forward(x, nil)
	k, ctx.kc = c.Wk.Forward(img, nil)
	v, ctx.vc = c.Wv.Forward(img, nil)
	ctx.q, ctx.k, ctx.v = q, k, v
	qPos := make([]int, x.Rows()) // bidirectional: positions are irrelevant
	ctx.probs = make([]*tensor.Tensor, c.NHeads)
	concat := model.MultiHead(q, k, v, c.NHeads, attention.Full{}, qPos, nil, ctx.probs)
	y, oc := c.Wo.Forward(concat, nil)
	ctx.oc = oc
	return y, ctx
}

// Backward returns (dText, dImg).
func (c *CrossAttention) Backward(ctxAny any, dy *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	ctx := ctxAny.(*xattnCtx)
	dConcat := c.Wo.Backward(ctx.oc, dy)
	qPos := make([]int, ctx.q.Rows()) // bidirectional: positions are irrelevant
	dq, dk, dv := model.MultiHeadBackward(ctx.q, ctx.k, ctx.v, dConcat, ctx.probs, attention.Full{}, qPos, nil)
	dx := c.Wq.Backward(ctx.qc, dq)
	dImg := c.Wk.Backward(ctx.kc, dk)
	dImg.Add(c.Wv.Backward(ctx.vc, dv))
	return dx, dImg
}

// CrossBlock is a full cross-attention transformer layer: pre-norm
// cross-attention with residual, then a SwiGLU FFN. These are the trainable
// layers of multimodal pre-training (§3.2: self-attention layers stay
// frozen, cross-attention layers compute weight and input gradients).
type CrossBlock struct {
	Norm1 *model.RMSNorm
	XAttn *CrossAttention
	Norm2 *model.RMSNorm
	FFN   *model.FFN
}

// NewCrossBlock constructs a cross-attention layer.
func NewCrossBlock(name string, textDim, encDim, hidden, nHeads int, rng *rand.Rand) *CrossBlock {
	return &CrossBlock{
		Norm1: model.NewRMSNorm(name+".norm1", textDim),
		XAttn: NewCrossAttention(name+".xattn", textDim, encDim, nHeads, textDim/nHeads, rng),
		Norm2: model.NewRMSNorm(name+".norm2", textDim),
		FFN:   model.NewFFN(name+".ffn", textDim, hidden, rng),
	}
}

// Params returns the block's parameters.
func (b *CrossBlock) Params() []*model.Param {
	ps := []*model.Param{b.Norm1.P}
	ps = append(ps, b.XAttn.Params()...)
	ps = append(ps, b.Norm2.P)
	return append(ps, b.FFN.Params()...)
}

type crossBlockCtx struct {
	n1, xa, n2, ff any
}

// Forward runs the layer; img is the encoder output shared by all
// cross-attention layers.
func (b *CrossBlock) Forward(x, img *tensor.Tensor) (*tensor.Tensor, any) {
	ctx := &crossBlockCtx{}
	n1, c1 := b.Norm1.Forward(x, nil)
	ctx.n1 = c1
	ao, ca := b.XAttn.Forward(n1, img)
	ctx.xa = ca
	h := x.Clone().Add(ao)
	n2, c2 := b.Norm2.Forward(h, nil)
	ctx.n2 = c2
	fo, cf := b.FFN.Forward(n2, nil)
	ctx.ff = cf
	return h.Add(fo), ctx
}

// Backward returns (dText, dImg).
func (b *CrossBlock) Backward(ctxAny any, dy *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	ctx := ctxAny.(*crossBlockCtx)
	dh := b.Norm2.Backward(ctx.n2, b.FFN.Backward(ctx.ff, dy))
	dh.Add(dy)
	dxa, dImg := b.XAttn.Backward(ctx.xa, dh)
	dx := b.Norm1.Backward(ctx.n1, dxa)
	dx.Add(dh)
	return dx, dImg
}

// CrossLayer adapts a CrossBlock to the model.Layer interface so it can be
// placed into pipeline stages: the image tokens arrive through Env.Aux, and
// the image gradient accumulates into Env.AuxGrad. This is what makes the
// §3.2.2 stage-wrapping options (n self-attention layers + one
// cross-attention layer per virtual stage) schedulable by the ordinary PP
// executor.
type CrossLayer struct {
	Block *CrossBlock
}

type crossLayerCtx struct {
	inner any
	env   *model.Env
}

// Forward implements model.Layer.
func (c *CrossLayer) Forward(x *tensor.Tensor, env *model.Env) (*tensor.Tensor, any) {
	if env == nil || env.Aux == nil {
		panic("vision: CrossLayer requires Env.Aux (encoder output)")
	}
	y, ctx := c.Block.Forward(x, env.Aux)
	return y, &crossLayerCtx{inner: ctx, env: env}
}

// Backward implements model.Layer.
func (c *CrossLayer) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*crossLayerCtx)
	dx, dImg := c.Block.Backward(ctx.inner, dy)
	if ctx.env.AuxGrad != nil {
		ctx.env.AuxGrad.Add(dImg)
	}
	return dx
}

// Params implements model.Layer.
func (c *CrossLayer) Params() []*model.Param { return c.Block.Params() }
