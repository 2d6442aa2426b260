package tensor

import (
	"fmt"
	"math"
)

// AdamWCoef holds one AdamW step's constants: the hyper-parameters and the
// bias corrections BC1 = 1−β1ᵗ and BC2 = 1−β2ᵗ, rounded to float32.
type AdamWCoef struct {
	Beta1, Beta2, Eps, WeightDecay, LR float32
	BC1, BC2                           float32
}

// AdamWUpdate applies one AdamW step in place to the weights w and the
// moments m and v, given the gradient g (all of len(w)): for every element
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
// Workers chunks, sixteen scalar operations an element, with no bit changed.
func AdamWUpdate(w, g, m, v []float32, c AdamWCoef) {
	n := len(w)
	if len(g) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamWUpdate lengths w %d, g %d, m %d, v %d", n, len(g), len(m), len(v)))
	}
	workers := Workers(n, 16*n)
	if workers <= 1 {
		adamwRange(w, g, m, v, c)
		return
	}
	ParallelRows(n, workers, func(lo, hi int) {
		adamwRange(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], c)
	})
}

// adamwRange is AdamWUpdate on one chunk; the slices all have len(w).
func adamwRange(w, g, m, v []float32, c AdamWCoef) {
	c1, c2 := 1-c.Beta1, 1-c.Beta2
	// The conversions pin each product's rounding: the compiler may fuse an
	// unconverted product into the add that consumes it, a converted one not.
	for i := adamwVec(w, g, m, v, c, c1, c2); i < len(w); i++ {
		gi, wi := g[i], w[i]
		mi := float32(c.Beta1*m[i]) + float32(c1*gi)
		vi := float32(c.Beta2*v[i]) + float32(float32(c2*gi)*gi)
		m[i], v[i] = mi, vi
		s := float32(math.Sqrt(float64(vi / c.BC2)))
		w[i] = wi - float32(c.LR*((mi/c.BC1)/(s+c.Eps)+float32(c.WeightDecay*wi)))
	}
}
