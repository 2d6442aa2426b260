package tensor

import "math"

// The softmax sweeps run on two kinds of kernel, each Float32bits-equal
// (NaN-ness for NaN) to the scalar loop it replaces. The elementwise passes
// (ScaleMax, ScaleRow, SoftmaxGradRow) take the leading multiple of sixteen
// elements on AVX-512 lanes (softmax_amd64.s), one element a lane running
// the loop's own operations; the scalar loop takes the rest, and all of a
// row shorter than one vector. The reductions (SumRows8, DotRows8) keep each
// row's sum one float32 chain in increasing j, as the single-row loop has
// it, and run eight rows' chains side by side, one row an AVX lane after an
// in-register transpose, so eight independent adds are in flight instead of
// one. Every product feeding a chain is written float32(x*y), which no
// GOAMD64 level may fuse into an FMA.

// ScaleMax multiplies every x[j] by scale in place and returns the running
// max of the products from m, the scalar loop
//
//	for j := range x { x[j] *= scale; if x[j] > m { m = x[j] } }
//
// bit for bit: a NaN never wins, and neither does a value equal to the max
// so far. On lanes the max's value is order-free; only which signed zero
// wins a ±0 tie depends on the order, and zeroTie settles it as the scan
// would.
func ScaleMax(x []float32, scale, m float32) float32 {
	n, v := scaleMaxVec(x, scale, m)
	for j := n; j < len(x); j++ {
		x[j] *= scale
		if x[j] > v {
			v = x[j]
		}
	}
	if n > 0 {
		v = zeroTie(x, m, v)
	}
	return v
}

// rowMax is ScaleMax without the scaling, x only read: SoftmaxRow's max.
func rowMax(x []float32, m float32) float32 {
	n, v := maxVec(x, m)
	for _, e := range x[n:] {
		if e > v {
			v = e
		}
	}
	if n > 0 {
		v = zeroTie(x, m, v)
	}
	return v
}

// zeroTie returns the signed zero the scalar scan of x from m would end on
// when the lane-wise max v is a zero, and v otherwise. The scan never leaves
// a zero m (no later zero is greater), and from a negative m it ends on the
// first zero of x: no element before it reaches zero, none after it passes.
func zeroTie(x []float32, m, v float32) float32 {
	if v != 0 {
		return v
	}
	if m == 0 {
		return m
	}
	for _, e := range x {
		if e == 0 {
			return e
		}
	}
	return v
}

// ScaleRow multiplies every x[j] by a in place.
func ScaleRow(x []float32, a float32) {
	for j := scaleVec(x, a); j < len(x); j++ {
		x[j] *= a
	}
}

// SoftmaxGradRow sets ds[j] = p[j]·(ds[j] − dot) for every j of ds, the
// softmax backward's update of dP into dS given the row's dot. p must hold
// at least len(ds) elements.
func SoftmaxGradRow(ds, p []float32, dot float32) {
	p = p[:len(ds)]
	for j := softmaxGradVec(ds, p, dot); j < len(ds); j++ {
		ds[j] = p[j] * (ds[j] - dot)
	}
}

// SumRows8 adds x[r·ld+j] to acc[r] for r < 8 and j < n, each row in
// increasing j: the eight single-row chains `for j { acc += x[j] }`, run
// side by side on the vector kernel, whose columns past a multiple of
// eight, and all of them without AVX2, the single-row loops finish. x must
// hold 7·ld+n elements.
func SumRows8(acc *[8]float32, x []float32, ld, n int) {
	x = x[:7*ld+n]
	j := sumRows8Vec(acc, x, ld, n)
	for r := range acc {
		for _, v := range x[r*ld+j : r*ld+n] {
			acc[r] += v
		}
	}
}

// DotRows8 adds float32(a[r·lda+j]·b[r·ldb+j]) to acc[r] for r < 8 and
// j < n, each row in increasing j: the eight single-row dot chains
// `for j { acc += float32(a[j]*b[j]) }`, run side by side as SumRows8's
// are. a and b must hold 7·lda+n and 7·ldb+n elements.
func DotRows8(acc *[8]float32, a []float32, lda int, b []float32, ldb, n int) {
	a, b = a[:7*lda+n], b[:7*ldb+n]
	j := dotRows8Vec(acc, a, lda, b, ldb, n)
	for r := range acc {
		br := b[r*ldb+j : r*ldb+n]
		for c, v := range a[r*lda+j : r*lda+n] {
			acc[r] += float32(v * br[c])
		}
	}
}

// SoftmaxRow computes a numerically stable softmax of xs in place.
func SoftmaxRow(xs []float32) {
	if !softmaxExp(xs) {
		return
	}
	var sum float32
	for _, e := range xs {
		sum += e
	}
	ScaleRow(xs, 1/sum)
}

// SoftmaxRows applies SoftmaxRow to every row of a 2-D tensor in place,
// eight rows' sums at a time on SumRows8.
func SoftmaxRows(a *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	i := 0
	for ; i+7 < m; i += 8 {
		var live [8]bool
		for r := range live {
			live[r] = softmaxExp(a.Row(i + r))
		}
		var sum [8]float32
		SumRows8(&sum, a.Data[i*n:], n, n)
		for r, ok := range live {
			if ok {
				ScaleRow(a.Row(i+r), 1/sum[r])
			}
		}
	}
	for ; i < m; i++ {
		SoftmaxRow(a.Row(i))
	}
	return a
}

// softmaxExp runs a softmax's max and exponent passes over xs and reports
// whether the row has a max. A row without one (every entry −Inf or NaN) is
// set to zeros instead, so a fully padded query attends to nothing (used by
// document masks).
func softmaxExp(xs []float32) bool {
	maxv := rowMax(xs, float32(math.Inf(-1)))
	if math.IsInf(float64(maxv), -1) {
		clear(xs)
		return false
	}
	ExpShift(xs, maxv)
	return true
}
