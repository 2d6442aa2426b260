//go:build !amd64 || purego

package tensor

const useAVX2 = false

// axpy4Vec covers nothing: axpy4's scalar loop does all the work.
func axpy4Vec(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) int { return 0 }
