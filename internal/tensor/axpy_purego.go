//go:build !amd64 || purego

package tensor

const useAVX2 = false

// useAVX512 is a variable only so tests can set it the way they do on amd64;
// it stays false, and neither register tile is ever reached.
var useAVX512 = false

// useVecExp is off: ExpShift and Sigmoid call math.Exp on every element.
const useVecExp = false

func expShiftVec(x []float32, shift float32) int { return 0 }

func sigmoidVec(dst, src []float32) int { return 0 }

// The softmax sweeps' lane kernels cover nothing: their scalar loops do all
// the work.
func scaleMaxVec(x []float32, scale, m float32) (int, float32) { return 0, m }

func maxVec(x []float32, m float32) (int, float32) { return 0, m }

func scaleVec(x []float32, a float32) int { return 0 }

func softmaxGradVec(ds, p []float32, dot float32) int { return 0 }

func sumRows8Vec(acc *[8]float32, x []float32, ld, n int) int { return 0 }

func dotRows8Vec(acc *[8]float32, a []float32, lda int, b []float32, ldb, n int) int { return 0 }

// axpy4Vec covers nothing: axpy4's scalar loop does all the work.
func axpy4Vec(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) int { return 0 }

func tile4x32AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int) {
	panic("tensor: no register-tile kernel in this build")
}

func tile4x16AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc int) {
	panic("tensor: no register-tile kernel in this build")
}

func tile4x32MaskAVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int) {
	panic("tensor: no register-tile kernel in this build")
}

func tile4x16MaskAVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int, skip bool) {
	panic("tensor: no register-tile kernel in this build")
}

func zeroGroupsAVX512(a *float32, lda, kc, ng int) uint64 {
	panic("tensor: no register-tile kernel in this build")
}

func transpose16AVX(dst *float32, ldd int, src *float32, lds int, n int) {
	panic("tensor: no vector transpose in this build")
}
