//go:build !amd64 || purego

package tensor

const useAVX2 = false

// useAVX512 is a variable only so tests can set it the way they do on amd64;
// it stays false, and tile4x32AVX512 is never reached.
var useAVX512 = false

// axpy4Vec covers nothing: axpy4's scalar loop does all the work.
func axpy4Vec(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) int { return 0 }

func tile4x32AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int) {
	panic("tensor: no register-tile kernel in this build")
}
