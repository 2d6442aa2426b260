//go:build !purego

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits64 is sameBits for float64.
func sameBits64(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// checkExp64 runs exp64AVX512 on xs (padded to a multiple of 8 with zeros)
// and compares every lane's float64 bits with math.Exp's.
func checkExp64(t *testing.T, xs []float64) {
	t.Helper()
	src := append([]float64(nil), xs...)
	for len(src)%8 != 0 {
		src = append(src, 0)
	}
	got := make([]float64, len(src))
	exp64AVX512(&got[0], &src[0], len(src))
	for i, x := range src {
		if want := math.Exp(x); !sameBits64(got[i], want) {
			t.Fatalf("exp64(%v (%#x)) = %v (%#x), want %v (%#x)",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExp64MatchesMathExp compares the vector exp's float64 results, before
// any narrowing, with math.Exp's: on every float32 sample widened, and on
// float64 inputs the float32 ones cannot reach — 2,000 consecutive float64
// values around each of archExp's edges (its Overflow compare, its denormal
// branch, its underflow), 100,000 evenly spaced values over [−760, 720]
// (every kind of result) and 100,000 random bit patterns.
func TestExp64MatchesMathExp(t *testing.T) {
	if !useVecExp {
		t.Skip("no vector exp on this CPU")
	}
	var xs []float64
	for _, x := range expSamples() {
		xs = append(xs, float64(x))
	}
	checkExp64(t, xs)
	xs = xs[:0]
	for _, e := range expEdges[3:] {
		b := math.Float64bits(e)
		for d := uint64(0); d < 2000; d++ {
			xs = append(xs, math.Float64frombits(b-1000+d))
		}
	}
	for i := 0; i < 100000; i++ {
		xs = append(xs, -760+float64(i)*0.0148)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	checkExp64(t, xs)
}
