package model

import (
	"math"
	"math/rand"

	"llama4d/internal/tensor"
)

// TokenEmbedder maps token ids to hidden vectors. Implemented by Embedding
// and by the tensor-parallel vocabulary-sharded variant in the tp package.
type TokenEmbedder interface {
	Forward(tokens []int) (*tensor.Tensor, any)
	Backward(ctx any, dy *tensor.Tensor)
	Params() []*Param
}

// LossHead computes the training loss from final hidden states and
// back-propagates it. Implemented by Head and by the tensor-parallel
// vocabulary-sharded variant in the tp package.
type LossHead interface {
	ForwardLoss(x *tensor.Tensor, targets []int, scale float32, env *Env) (float64, any)
	BackwardLoss(ctx any) *tensor.Tensor
	Params() []*Param
}

// Embedding maps token ids to vectors via a [vocab, dim] table. It lives on
// the first pipeline rank; its large vocabulary (128K in Llama 3) is why the
// paper removes a transformer layer from that rank (§3.1.2).
type Embedding struct {
	P *Param
}

// NewEmbedding creates a token embedding table.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{P: NewParam(name, initWeight(rng, 0.02, vocab, dim))}
}

// Forward gathers the rows of the embedding table for each token.
func (e *Embedding) Forward(tokens []int) (*tensor.Tensor, any) {
	dim := e.P.W.Cols()
	out := tensor.GetUninit(len(tokens), dim)
	for i, t := range tokens {
		copy(out.Row(i), e.P.W.Row(t))
	}
	return out, tokens
}

// Backward scatter-adds dy into the gradient rows of the used tokens.
func (e *Embedding) Backward(ctx any, dy *tensor.Tensor) {
	tokens := ctx.([]int)
	for i, t := range tokens {
		gi := e.P.G.Row(t)
		di := dy.Row(i)
		for j := range gi {
			gi[j] += di[j]
		}
	}
}

// Params returns the embedding table parameter.
func (e *Embedding) Params() []*Param { return []*Param{e.P} }

// Head is the output projection plus fused softmax cross-entropy loss. It
// lives on the last pipeline rank and, with the embedding, motivates the
// paper's balanced-PP layer removal (§3.1.2, Fig 10).
type Head struct {
	Norm *RMSNorm
	Proj *Linear
}

// NewHead creates the final norm + vocabulary projection.
func NewHead(name string, dim, vocab int, rng *rand.Rand) *Head {
	return &Head{
		Norm: NewRMSNorm(name+".norm", dim),
		Proj: NewLinear(name+".proj", dim, vocab, rng),
	}
}

type headCtx struct {
	nCtx, pCtx any
	n          *tensor.Tensor // the norm's output, Proj's saved input
	probs      *tensor.Tensor // softmax(logits)
	targets    []int
	scale      float32
}

// ForwardLoss computes mean cross-entropy over the rows against targets.
// scale multiplies the gradient in BackwardLoss (callers use it to average
// across micro-batches and data-parallel replicas). Rows with target < 0 are
// ignored (padding).
func (h *Head) ForwardLoss(x *tensor.Tensor, targets []int, scale float32, env *Env) (float64, any) {
	n, c1 := h.Norm.Forward(x, env)
	logits, c2 := h.Proj.Forward(n, env)
	probs := logits // softmax in place
	tensor.SoftmaxRows(probs)
	var loss float64
	count := 0
	for i, t := range targets {
		if t < 0 {
			continue
		}
		p := float64(probs.At(i, t))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		count++
	}
	if count > 0 {
		loss /= float64(count)
	}
	return loss, &headCtx{nCtx: c1, pCtx: c2, n: n, probs: probs, targets: targets, scale: scale / float32(max(count, 1))}
}

// BackwardLoss back-propagates the loss, returning dx for the stage input.
func (h *Head) BackwardLoss(ctxAny any) *tensor.Tensor {
	ctx := ctxAny.(*headCtx)
	dLogits := ctx.probs.Clone()
	for i, t := range ctx.targets {
		row := dLogits.Row(i)
		if t < 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		row[t] -= 1
		for j := range row {
			row[j] *= ctx.scale
		}
	}
	dn := h.Proj.Backward(ctx.pCtx, dLogits)
	tensor.Put(dLogits, ctx.probs, ctx.n)
	ctx.probs, ctx.n = nil, nil
	dx := h.Norm.Backward(ctx.nCtx, dn)
	tensor.Put(dn)
	return dx
}

// Params returns the head's parameters.
func (h *Head) Params() []*Param { return CollectParams(h.Norm, h.Proj) }
