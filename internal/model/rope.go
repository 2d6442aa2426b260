package model

import (
	"fmt"
	"math"

	"llama4d/internal/tensor"
)

// RoPE applies rotary position embeddings to per-head query/key projections.
// Rotation angles depend on the token's *global* sequence position, which is
// why context-parallel ranks must select positional encodings matching their
// token chunks (§4 "Integration: CP ranks").
type RoPE struct {
	HeadDim int
	Base    float64
}

// invFreq returns the inverse frequency for dimension pair i.
func (r RoPE) invFreq(i int) float64 {
	return 1 / math.Pow(r.Base, float64(2*i)/float64(r.HeadDim))
}

// rotate applies the rotation with the given sign (+1 forward, -1 backward —
// the Jacobian of a rotation is the inverse rotation) to every head of q and
// of k. Both are [rows, nHeads*HeadDim] (their head counts may differ); pos
// gives each row's global position.
func (r RoPE) rotate(q, k *tensor.Tensor, pos []int, sign float64) (qr, kr *tensor.Tensor) {
	rows := q.Rows()
	if k.Rows() != rows {
		panic(fmt.Sprintf("model: RoPE of %d query rows and %d key rows", rows, k.Rows()))
	}
	qr, kr = tensor.GetUninit(rows, q.Cols()), tensor.GetUninit(rows, k.Cols())
	half := r.HeadDim / 2
	// invFreq costs a math.Pow; hoist it out of the per-row loop. The cached
	// values are the identical float64s, so the rotation bits don't change.
	freqs := make([]float64, half)
	for j := range freqs {
		freqs[j] = r.invFreq(j)
	}
	// θ depends on neither the head nor the tensor, so each row's (cos, sin)
	// pairs are computed once and shared by all its Q and K heads: every
	// head gets the same float64 θ, hence the same floats, as when each
	// computed its own. math.Sincos runs math.Sin's and math.Cos's own
	// reduction and polynomials once for both.
	cs := make([]float32, 2*half)
	for i := 0; i < rows; i++ {
		p := float64(pos[i])
		for j, f := range freqs {
			sin, cos := math.Sincos(sign * p * f)
			cs[2*j], cs[2*j+1] = float32(cos), float32(sin)
		}
		r.rotateRow(qr.Row(i), q.Row(i), cs)
		r.rotateRow(kr.Row(i), k.Row(i), cs)
	}
	return qr, kr
}

// rotateRow rotates every whole head of the row x into out by the row's
// (cos, sin) pairs cs.
func (r RoPE) rotateRow(out, x, cs []float32) {
	for h := 0; h+r.HeadDim <= len(x); h += r.HeadDim {
		xh, oh := x[h:h+r.HeadDim], out[h:h+r.HeadDim]
		for j := 0; j < len(cs)/2; j++ {
			c, s := cs[2*j], cs[2*j+1]
			a, b := xh[2*j], xh[2*j+1]
			oh[2*j] = float32(a*c) - float32(b*s)
			oh[2*j+1] = float32(a*s) + float32(b*c)
		}
	}
}

// Apply rotates q and k forward by each row's position.
func (r RoPE) Apply(q, k *tensor.Tensor, pos []int) (qr, kr *tensor.Tensor) {
	return r.rotate(q, k, pos, 1)
}

// ApplyGrad back-propagates through Apply: rotation by the negated angle.
func (r RoPE) ApplyGrad(dq, dk *tensor.Tensor, pos []int) (dqr, dkr *tensor.Tensor) {
	return r.rotate(dq, dk, pos, -1)
}
