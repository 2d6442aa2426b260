// Package bf16 emulates BFloat16 arithmetic on top of float32.
//
// BFloat16 keeps the 8-bit exponent of IEEE-754 binary32 but truncates the
// mantissa to 7 bits. The paper ("Scaling Llama 3 Training with Efficient
// Parallelism Strategies", ISCA'25, §6.2) relies on the distinction between
// BF16 compute/communication and FP32 gradient accumulation; this package
// provides the rounding primitives that let the rest of the repository
// emulate that distinction bit-exactly without dedicated hardware.
package bf16

import "math"

// Round converts x to the nearest BFloat16-representable value and returns it
// as a float32, using round-to-nearest-even (the mode used by hardware BF16
// conversion units). NaN payloads are canonicalised; infinities round to
// themselves.
func Round(x float32) float32 {
	bits := math.Float32bits(x)
	if isNaN32(bits) {
		// Quiet NaN with a canonical payload that survives truncation.
		return math.Float32frombits(0x7FC00000)
	}
	// Round to nearest even on the upper 16 bits.
	const roundBit = 0x00008000
	lower := bits & 0xFFFF
	upper := bits &^ 0xFFFF
	switch {
	case lower > roundBit:
		upper += 0x10000
	case lower == roundBit && upper&0x10000 != 0:
		upper += 0x10000
	}
	return math.Float32frombits(upper)
}

func isNaN32(bits uint32) bool {
	return bits&0x7F800000 == 0x7F800000 && bits&0x007FFFFF != 0
}

// Add computes Round(a + b): a single BF16 addition with BF16 output, the
// operation whose non-associativity drives the paper's numerical-debugging
// methodology.
func Add(a, b float32) float32 {
	return Round(a + b)
}

// SumBF16 accumulates xs with a BF16 accumulator: every partial sum is
// rounded to BF16. This models a (hypothetical) low-precision reduction and
// is the worst case the paper's FP32-accumulation recommendation avoids.
func SumBF16(xs []float32) float32 {
	var acc float32
	for _, x := range xs {
		acc = Add(acc, x)
	}
	return acc
}

// SumFP32 accumulates BF16-rounded inputs in an FP32 accumulator, the
// precision policy the paper adopts for gradient reduce-scatter and PP
// micro-batch gradient accumulation (§6.2 "Accumulating gradients in FP32").
func SumFP32(xs []float32) float32 {
	var acc float32
	for _, x := range xs {
		acc += Round(x)
	}
	return acc
}

// SumChunked reduces xs by first summing each of the n contiguous chunks
// independently and then summing the per-chunk partials in chunk order, all
// in FP32. This emulates the accumulation order of an n-way parallel
// reduction (e.g. a reduce-scatter across n data-parallel ranks followed by
// an ordered combine) and is the building block of the §6.2 "same
// accumulation order ⇒ bitwise match" harness.
func SumChunked(xs []float32, n int) float32 {
	if n <= 1 || len(xs) == 0 {
		return SumFP32(xs)
	}
	if n > len(xs) {
		n = len(xs)
	}
	partials := make([]float32, 0, n)
	chunk := (len(xs) + n - 1) / n
	for start := 0; start < len(xs); start += chunk {
		end := start + chunk
		if end > len(xs) {
			end = len(xs)
		}
		partials = append(partials, SumFP32(xs[start:end]))
	}
	var acc float32
	for _, p := range partials {
		acc += p
	}
	return acc
}
