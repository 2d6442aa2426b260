package model

import (
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/tensor"
)

// Block is a pre-norm transformer layer:
//
//	h = x + Attn(Norm1(x));  y = h + FFN(Norm2(h))
type Block struct {
	Norm1 *RMSNorm
	Attn  *Attention
	Norm2 *RMSNorm
	FFN   *FFN
	// Frozen marks the block's weights as non-trainable. The multimodal
	// model freezes its self-attention (text) layers (§3.2): a frozen block
	// still back-propagates input gradients but skips weight gradients.
	Frozen bool
	// Recompute selects the activation-recomputation policy [5] — the knob
	// the paper's balanced-PP co-design exists to avoid turning on
	// (§3.1.2, Fig 10).
	Recompute RecomputeMode
}

// RecomputeMode selects how much of a block's forward pass is replayed
// during backward instead of being saved.
type RecomputeMode int

const (
	// RecomputeNone saves every sub-layer activation (fastest, most memory).
	RecomputeNone RecomputeMode = iota
	// RecomputeSelective saves the FFN path but replays the attention path,
	// dropping the O(seq²) probability matrices — selective activation
	// recomputation à la Korthikanti et al.
	RecomputeSelective
	// RecomputeFull keeps only the block input and replays everything.
	RecomputeFull
)

// NewBlock builds a sequential transformer layer.
func NewBlock(name string, cfg Config, rng *rand.Rand) *Block {
	return &Block{
		Norm1: NewRMSNorm(name+".norm1", cfg.Dim),
		Attn:  NewAttention(name+".attn", cfg.Dim, cfg.NHeads, cfg.NKVHeads, cfg.HeadDim(), cfg.RopeBase, rng),
		Norm2: NewRMSNorm(name+".norm2", cfg.Dim),
		FFN:   NewFFN(name+".ffn", cfg.Dim, cfg.Hidden, rng),
	}
}

type blockCtx struct {
	n1, at, n2, ff any
	// Recompute mode: only the checkpointed input and environment survive.
	x   *tensor.Tensor
	env *Env
}

// forwardFull runs the block, capturing every sub-layer context.
func (b *Block) forwardFull(x *tensor.Tensor, env *Env) (*tensor.Tensor, *blockCtx) {
	ctx := &blockCtx{}
	n1, c1 := b.Norm1.Forward(x, env)
	ctx.n1 = c1
	ao, ca := b.Attn.Forward(n1, env)
	ctx.at = ca
	h := x.Clone().Add(ao)
	tensor.Put(ao)
	n2, c2 := b.Norm2.Forward(h, env)
	ctx.n2 = c2
	fo, cf := b.FFN.Forward(n2, env)
	ctx.ff = cf
	h.Add(fo)
	tensor.Put(fo)
	return h, ctx
}

// ForwardOnly is Forward for inference: the same sub-layer forwards in the
// same order, with the residual stream x updated in place (the same sums
// Forward writes to a fresh tensor) and every intermediate Backward would
// have consumed released before it returns. Unlike an Env it separates the
// two uses of position: ropePos is each row's position within its own
// sequence (the rotation angle), maskPos its position in the batch (what
// mask and the tile grid see) — they differ when several sequences are
// packed under a Document mask. kv, when non-nil, observes the post-RoPE K
// and the V of every row before attention runs (serving's hook for writing
// cache pages).
func (b *Block) ForwardOnly(x *tensor.Tensor, ropePos []int, mask attention.Mask, maskPos []int, kv func(k, v *tensor.Tensor)) {
	q, k, v := b.Attn.QKV(b.Norm1.Apply(x), ropePos)
	if kv != nil {
		kv(k, v)
	}
	concat := MultiHead(q, k, v, b.Attn.NHeads, mask, maskPos, nil, nil)
	tensor.Put(q, k, v)
	ao, _ := b.Attn.Wo.Forward(concat, nil)
	tensor.Put(concat)
	x.Add(ao)
	tensor.Put(ao)
	n2 := b.Norm2.Apply(x)
	hid := b.FFN.Hidden(n2)
	tensor.Put(n2)
	fo, _ := b.FFN.W2.Forward(hid, nil)
	tensor.Put(hid)
	x.Add(fo)
	tensor.Put(fo)
}

// Forward implements Layer.
func (b *Block) Forward(x *tensor.Tensor, env *Env) (*tensor.Tensor, any) {
	out, ctx := b.forwardFull(x, env)
	switch b.Recompute {
	case RecomputeFull:
		// Keep only the checkpoint; all intermediate activations release.
		return out, &blockCtx{x: x, env: env}
	case RecomputeSelective:
		// Keep the FFN path; the attention contexts (holding the O(seq²)
		// probability matrices) release and are replayed in Backward.
		return out, &blockCtx{x: x, env: env, n2: ctx.n2, ff: ctx.ff}
	}
	return out, ctx
}

// Backward implements Layer.
func (b *Block) Backward(ctxAny any, dy *tensor.Tensor) *tensor.Tensor {
	ctx := ctxAny.(*blockCtx)
	if ctx.x != nil {
		// Re-run the dropped portion of the forward from the checkpoint;
		// determinism makes the rebuilt activations bitwise identical to
		// the discarded ones.
		if ctx.n2 == nil {
			// The rebuilt output is NOT released: it is the same tensor the
			// rebuilt Norm2 context saved as its input (h aliases both).
			_, ctx = b.forwardFull(ctx.x, ctx.env)
		} else {
			n1, c1 := b.Norm1.Forward(ctx.x, ctx.env)
			ao, ca := b.Attn.Forward(n1, ctx.env)
			tensor.Put(ao)
			ctx.n1, ctx.at = c1, ca
		}
	}
	var saved []*tensor.Tensor
	if b.Frozen {
		// Frozen layers compute only input gradients (§3.2): snapshot and
		// restore the weight-gradient accumulators around the backward pass.
		for _, p := range b.Params() {
			saved = append(saved, p.G.Clone())
		}
	}
	tf := b.FFN.Backward(ctx.ff, dy)
	dh := b.Norm2.Backward(ctx.n2, tf)
	tensor.Put(tf)
	dh.Add(dy) // residual
	ta := b.Attn.Backward(ctx.at, dh)
	dx := b.Norm1.Backward(ctx.n1, ta)
	tensor.Put(ta)
	dx.Add(dh) // residual
	tensor.Put(dh)
	if b.Frozen {
		for i, p := range b.Params() {
			copy(p.G.Data, saved[i].Data)
		}
		tensor.Put(saved...)
	}
	return dx
}

// Params implements Layer.
func (b *Block) Params() []*Param {
	return CollectParams(b.Norm1, b.Attn, b.Norm2, b.FFN)
}

// TrainableParams returns Params() unless the block is frozen.
func (b *Block) TrainableParams() []*Param {
	if b.Frozen {
		return nil
	}
	return b.Params()
}
