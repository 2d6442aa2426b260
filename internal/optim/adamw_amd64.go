//go:build amd64 && !purego

package optim

import "llama4d/internal/tensor"

// adamwVec runs the lane-wise AdamW kernel over the leading multiple of
// sixteen elements and returns how many it covered; the slices all have
// len(w), and c1, c2 are 1−β1 and 1−β2. The kernel needs what the register
// tile needs, AVX-512F with its state saved by the OS.
func adamwVec(w, g, m, v []float32, b1, c1, b2, c2, bc1, bc2, eps, wd, lr float32) int {
	n := len(w) &^ 15
	if n == 0 || !tensor.HasAVX512() {
		return 0
	}
	adamwAVX512(&w[0], &g[0], &m[0], &v[0], n, b1, c1, b2, c2, bc1, bc2, eps, wd, lr)
	return n
}

//go:noescape
func adamwAVX512(w, grad, m, v *float32, n int, b1, c1, b2, c2, bc1, bc2, eps, wd, lr float32)

// sqrt32AVX512 is the AdamW kernel's square root alone, dst[j] =
// VSQRTPS(src[j]) for j < n, n a positive multiple of 16: what the tests
// compare with math.Sqrt.
//
//go:noescape
func sqrt32AVX512(dst, src *float32, n int)
