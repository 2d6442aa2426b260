package tensor

import "math"

// ExpShift replaces every x[j] by float32(math.Exp(float64(x[j] - shift))),
// the exponent pass of a softmax. The vector exp (exp_amd64.s) takes every
// element when the CPU has it, eight a block and the last len(x) mod 8 as a
// masked block; its lanes run math.Exp's own instruction sequence, so every
// element has the bits the scalar loop below, which runs without it, would
// give it.
func ExpShift(x []float32, shift float32) {
	for j := expShiftVec(x, shift); j < len(x); j++ {
		x[j] = float32(math.Exp(float64(x[j] - shift)))
	}
}

// Sigmoid sets dst[j] = float32(1 / (1 + math.Exp(-float64(src[j])))) for
// every j of src, on the vector exp like ExpShift; dst may be src.
func Sigmoid(dst, src []float32) {
	dst = dst[:len(src)]
	for j := sigmoidVec(dst, src); j < len(src); j++ {
		dst[j] = float32(1 / (1 + math.Exp(-float64(src[j]))))
	}
}
