package optim

import (
	"math"

	"llama4d/internal/tensor"
)

// update applies one AdamW step in place to the weights w and the moments m
// and v, given the gradient g (all of len(w)) and the bias corrections
// bc1 = 1−β1ᵗ and bc2 = 1−β2ᵗ: for every element
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	w −= lr·((m/bc1)/(float32(sqrt(float64(v/bc2))) + eps) + wd·w)
//
// each operation a separately rounded float32 operation (the square root in
// float64, narrowed once), the FP32 optimizer-state arithmetic of the
// paper's §6.2. With AVX-512 the leading multiple of sixteen elements runs
// on the lane-wise kernel (adamw_amd64.s), which performs the same rounding
// sequence per lane; the scalar loop takes the rest, and everything in the
// pure-Go build. Elements are independent, so the update splits into
// tensor.Workers chunks, sixteen scalar operations an element, with no bit
// changed.
func (a *AdamW) update(w, g, m, v []float32, bc1, bc2 float32) {
	n := len(w)
	workers := tensor.Workers(n, 16*n)
	if workers <= 1 {
		a.updateRange(w, g, m, v, bc1, bc2)
		return
	}
	tensor.ParallelRows(n, workers, func(lo, hi int) {
		a.updateRange(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bc1, bc2)
	})
}

// updateRange is update on one chunk; the slices all have len(w).
func (a *AdamW) updateRange(w, g, m, v []float32, bc1, bc2 float32) {
	b1, b2, eps, wd, lr := a.Beta1, a.Beta2, a.Eps, a.WeightDecay, a.LR
	c1, c2 := 1-b1, 1-b2
	// The conversions pin each product's rounding: the compiler may fuse an
	// unconverted product into the add that consumes it, a converted one not.
	for i := adamwVec(w, g, m, v, b1, c1, b2, c2, bc1, bc2, eps, wd, lr); i < len(w); i++ {
		gi, wi := g[i], w[i]
		mi := float32(b1*m[i]) + float32(c1*gi)
		vi := float32(b2*v[i]) + float32(float32(c2*gi)*gi)
		m[i], v[i] = mi, vi
		s := float32(math.Sqrt(float64(vi / bc2)))
		w[i] = wi - float32(lr*((mi/bc1)/(s+eps)+float32(wd*wi)))
	}
}
