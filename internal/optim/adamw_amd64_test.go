//go:build !purego

package optim

import (
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/tensor"
)

// sqrt64 keeps the float64 square root a call away, so the compiler cannot
// fold float32(sqrt64(float64(x))) into the float32 instruction under test.
//
//go:noinline
func sqrt64(x float64) float64 { return math.Sqrt(x) }

// checkSqrt32 runs sqrt32AVX512 on xs (padded to a multiple of 16 with
// zeros) and compares every lane's bits, NaN payloads included, with the
// float64 square root narrowed.
func checkSqrt32(t *testing.T, xs []float32) {
	t.Helper()
	src := append([]float32(nil), xs...)
	for len(src)%16 != 0 {
		src = append(src, 0)
	}
	got := make([]float32, len(src))
	sqrt32AVX512(&got[0], &src[0], len(src))
	for i, x := range src {
		if want := float32(sqrt64(float64(x))); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("sqrt(%v = %#x) = %#x, want %#x", x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}

// TestSqrt32MatchesMathSqrt is the tier-1 sample of TestSqrtExhaustive:
// zeros, infinities, signalling and quiet NaNs with payloads, denormals,
// every exponent at a spread of mantissas, negatives and random patterns.
func TestSqrt32MatchesMathSqrt(t *testing.T) {
	if !tensor.HasAVX512() {
		t.Skip("no AVX-512 on this CPU")
	}
	bits := []uint32{0, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x7f800001, 0x7fa5a5a5, 0xffc12345,
		1, 2, 3, 0x7fffff, 0x800001, 0x3f800000, 0x3f800001, 0x3fffffff, 0x7f7fffff, 0xbf800000, 0x807fffff}
	for e := uint32(0); e < 256; e++ {
		for _, man := range []uint32{0, 1, 0x2aaaaa, 0x400000, 0x555555, 0x7ffffe, 0x7fffff} {
			bits = append(bits, e<<23|man)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1<<16; i++ {
		bits = append(bits, rng.Uint32())
	}
	xs := make([]float32, len(bits))
	for i, b := range bits {
		xs[i] = math.Float32frombits(b)
	}
	checkSqrt32(t, xs)
}
