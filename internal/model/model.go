package model

import (
	"fmt"
	"math/rand"

	"llama4d/internal/tensor"
)

// Model is the full sequential transformer: the single-rank reference that
// every parallel configuration in this repository is verified against
// (the "sequential version" of the paper's §6.2 debugging methodology).
type Model struct {
	Cfg    Config
	Embed  *Embedding
	Blocks []*Block
	Head   *Head
}

// New builds a model with deterministic initialisation from rng.
func New(cfg Config, rng *rand.Rand) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{Cfg: cfg}
	m.Embed = NewEmbedding("embed", cfg.Vocab, cfg.Dim, rng)
	for l := 0; l < cfg.NLayers; l++ {
		m.Blocks = append(m.Blocks, NewBlock(fmt.Sprintf("layer%d", l), cfg, rng))
	}
	m.Head = NewHead("head", cfg.Dim, cfg.Vocab, rng)
	return m
}

// Params returns all parameters in deterministic order.
func (m *Model) Params() []*Param {
	ps := m.Embed.Params()
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, m.Head.Params()...)
}

// ZeroGrads clears every gradient accumulator.
func (m *Model) ZeroGrads() { ZeroGrads(m.Params()) }

// fwdCtx holds everything needed for a full-model backward pass.
type fwdCtx struct {
	embCtx   any
	blockCtx []any
	headCtx  any
}

// ForwardLoss runs the model on one sample and returns the mean token loss.
// scale multiplies the parameter gradients produced by Backward.
func (m *Model) ForwardLoss(tokens, targets []int, env *Env, scale float32) (float64, any) {
	x, ec := m.Embed.Forward(tokens)
	ctx := &fwdCtx{embCtx: ec}
	for _, b := range m.Blocks {
		var bc any
		x, bc = b.Forward(x, env)
		ctx.blockCtx = append(ctx.blockCtx, bc)
	}
	loss, hc := m.Head.ForwardLoss(x, targets, scale, env)
	ctx.headCtx = hc
	return loss, ctx
}

// Backward accumulates parameter gradients for a prior ForwardLoss call.
func (m *Model) Backward(ctxAny any) {
	ctx := ctxAny.(*fwdCtx)
	dx := m.Head.BackwardLoss(ctx.headCtx)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		ndx := m.Blocks[i].Backward(ctx.blockCtx[i], dx)
		tensor.Put(dx) // the incoming gradient is consumed, not retained
		dx = ndx
	}
	m.Embed.Backward(ctx.embCtx, dx)
	tensor.Put(dx)
}

// Sample is one training example: input tokens, per-position document ids
// for the attention mask, and next-token targets (−1 = ignored).
type Sample struct {
	Tokens  []int
	DocIDs  []int
	Targets []int
}

// StepLoss runs forward+backward over a batch of samples, averaging the
// loss and scaling gradients by 1/len(samples) — the sequential reference
// semantics that micro-batched and data-parallel training must reproduce.
// Reference surface: no non-test code calls it; this package's and
// internal/data's tests do (`make dead` lists it for that reason).
func (m *Model) StepLoss(samples []*Sample, env func(s *Sample) *Env) float64 {
	var total float64
	scale := 1 / float32(len(samples))
	for _, s := range samples {
		loss, ctx := m.ForwardLoss(s.Tokens, s.Targets, env(s), scale)
		m.Backward(ctx)
		total += loss
	}
	return total / float64(len(samples))
}

// CopyWeightsTo copies every parameter value into dst, matching by name.
// Used to give parallel models bitwise-identical initialisation. Reference
// surface: its callers are the cp and fsdp tests' sequential oracles.
func (m *Model) CopyWeightsTo(dst []*Param) {
	src := m.Params()
	byName := make(map[string]*Param, len(src))
	for _, p := range src {
		byName[p.Name] = p
	}
	for _, d := range dst {
		s, ok := byName[d.Name]
		if !ok {
			panic(fmt.Sprintf("model: no source parameter %q", d.Name))
		}
		if !s.W.SameShape(d.W) {
			panic(fmt.Sprintf("model: shape mismatch for %q: %v vs %v", d.Name, s.W.Shape, d.W.Shape))
		}
		copy(d.W.Data, s.W.Data)
	}
}

// GradientVector flattens all gradients into one tensor (for comparisons).
// Reference surface: its callers are tests (this package's and cp's).
func GradientVector(ps []*Param) *tensor.Tensor {
	n := 0
	for _, p := range ps {
		n += p.G.Len()
	}
	out := tensor.New(n)
	off := 0
	for _, p := range ps {
		copy(out.Data[off:], p.G.Data)
		off += p.G.Len()
	}
	return out
}
