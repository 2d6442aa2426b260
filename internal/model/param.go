// Package model implements a Llama-style transformer with hand-written
// forward and backward passes: RMSNorm, rotary position embeddings, grouped
// query attention with document-mask support, SwiGLU feed-forward networks,
// tied token embedding / output head, and fused cross-entropy loss.
//
// Each sub-layer returns an opaque context from Forward and consumes it in
// Backward, so multiple micro-batches can be in flight simultaneously —
// exactly the activation-memory structure pipeline parallelism creates on a
// real rank (§3 of the paper). Parallelism schemes plug in through two
// seams: the Layer interface (tensor parallelism substitutes column/row
// parallel linears) and the Env.KV hook (context parallelism substitutes the
// KV all-gather of §4).
package model

import (
	"fmt"
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/tensor"
)

// Param is a trainable tensor with its FP32 gradient accumulator. Gradients
// are always accumulated in full precision, per the paper's §6.2 policy.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// NewParam allocates a parameter with a zero gradient of the same shape.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is a differentiable module: Forward returns the output and an opaque
// context that Backward consumes to produce the input gradient. Parameter
// gradients accumulate into Params() across Backward calls (micro-batches).
type Layer interface {
	Forward(x *tensor.Tensor, env *Env) (*tensor.Tensor, any)
	Backward(ctx any, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// KVComm abstracts the context-parallel exchange of key/value tensors: the
// all-gather before attention and the matching gradient reduce-scatter in
// the backward pass (§4 "Design"). A nil KVComm means no context
// parallelism: the local K/V are the full sequence.
type KVComm interface {
	// GatherKV returns the full-sequence K and V in global position order,
	// given this rank's local chunks.
	GatherKV(k, v *tensor.Tensor) (fullK, fullV *tensor.Tensor)
	// ReduceKVGrad reduces the full-sequence dK/dV across the CP group and
	// returns this rank's local chunks.
	ReduceKVGrad(dK, dV *tensor.Tensor) (localDK, localDV *tensor.Tensor)
}

// Env carries the per-micro-batch attention environment: the mask, the
// global positions of the rows this rank owns, and the optional CP hook.
// Aux carries auxiliary cross-attention context (the multimodal image
// tokens of §3.2); cross-attention layers read it and accumulate their
// gradient contribution into AuxGrad.
type Env struct {
	Mask attention.Mask
	QPos []int  // global position of each local row
	KV   KVComm // nil unless context parallelism is active

	// Rec, when non-nil, receives the blocked attention engine's tile census
	// for every self-attention call under this environment — the per-rank
	// effective-FLOP accounting the workload-balance planner and the metrics
	// registry consume. Owned by one rank goroutine; nil disables recording.
	Rec *attention.Recorder

	Aux     *tensor.Tensor // encoder output shared by cross-attention layers
	AuxGrad *tensor.Tensor // accumulated ∂loss/∂Aux (allocated by the caller)
}

// SeqEnv builds the environment of a rank that owns the entire sequence.
func SeqEnv(seq int, mask attention.Mask) *Env {
	return &Env{Mask: mask, QPos: attention.Iota(seq)}
}

// CollectParams concatenates the parameters of several layers.
func CollectParams(layers ...Layer) []*Param {
	var ps []*Param
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all gradients in the list.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// ParamByName finds a parameter by exact name. Reference surface: its
// callers are tests (this package's and tp's vocabulary-parallel suite).
func ParamByName(ps []*Param, name string) *Param {
	for _, p := range ps {
		if p.Name == name {
			return p
		}
	}
	panic(fmt.Sprintf("model: no parameter named %q", name))
}

// initWeight draws a [rows, cols] matrix from N(0, std²).
func initWeight(rng *rand.Rand, std float64, rows, cols int) *tensor.Tensor {
	return tensor.RandN(rng, std, rows, cols)
}
