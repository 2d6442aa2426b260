package bf16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundExactValues(t *testing.T) {
	// Values already representable in BF16 must round to themselves.
	for _, x := range []float32{0, 1, -1, 0.5, 2, -3.5, 256, 1.0 / 128} {
		if got := Round(x); got != x {
			t.Errorf("Round(%v) = %v, want identity", x, got)
		}
	}
}

func TestRoundDropsMantissa(t *testing.T) {
	// 1 + 2^-8 is not representable in BF16 (7 mantissa bits): it must round
	// back to 1 under round-to-nearest-even (tie to even).
	x := float32(1) + float32(1)/256
	if got := Round(x); got != 1 {
		t.Errorf("Round(1+2^-8) = %v, want 1 (tie to even)", got)
	}
	// 1 + 3*2^-9 is above the tie: rounds up to 1 + 2^-7.
	y := float32(1) + 3*float32(1)/512
	want := float32(1) + float32(1)/128
	if got := Round(y); got != want {
		t.Errorf("Round(1+3*2^-9) = %v, want %v", got, want)
	}
}

func TestRoundTieToEven(t *testing.T) {
	// 1 + 2^-7 + 2^-8 is exactly halfway between 1+2^-7 and 1+2^-6;
	// the even neighbour is 1+2^-6 (mantissa ...10).
	x := float32(1) + float32(1)/128 + float32(1)/256
	want := float32(1) + float32(1)/64
	if got := Round(x); got != want {
		t.Errorf("tie-to-even: Round(%v) = %v, want %v", x, got, want)
	}
}

func TestRoundSpecials(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := Round(inf); got != inf {
		t.Errorf("Round(+Inf) = %v", got)
	}
	if got := Round(-inf); got != -inf {
		t.Errorf("Round(-Inf) = %v", got)
	}
	if got := Round(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("Round(NaN) = %v, want NaN", got)
	}
	// Negative zero is preserved.
	negZero := math.Float32frombits(0x80000000)
	if math.Float32bits(Round(negZero)) != 0x80000000 {
		t.Errorf("Round(-0) lost the sign bit")
	}
}

func TestRoundOverflowToInf(t *testing.T) {
	// The largest finite float32 rounds up past the BF16 max into +Inf.
	big := math.MaxFloat32
	if got := Round(float32(big)); !math.IsInf(float64(got), 1) {
		t.Errorf("Round(MaxFloat32) = %v, want +Inf", got)
	}
}

func TestBitsRoundTrip(t *testing.T) {
	// A rounded value is exactly its 16-bit BF16 encoding (the upper half of
	// the float32 bits) widened back: the lower half is zero.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := float32(rng.NormFloat64() * 100)
		r := Round(x)
		enc := uint16(math.Float32bits(r) >> 16)
		if got := math.Float32frombits(uint32(enc) << 16); got != r {
			t.Fatalf("BF16 encoding of Round(%v) = %v widens to %v", x, r, got)
		}
	}
}

func TestRoundIdempotentProperty(t *testing.T) {
	f := func(bits uint32) bool {
		x := math.Float32frombits(bits)
		r := Round(x)
		rr := Round(r)
		if math.IsNaN(float64(r)) {
			return math.IsNaN(float64(rr))
		}
		return rr == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRoundErrorBoundProperty(t *testing.T) {
	// Relative error of BF16 rounding is at most 2^-8 for normal values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := float32(rng.NormFloat64())
		if x == 0 {
			return true
		}
		r := Round(x)
		rel := math.Abs(float64(r-x)) / math.Abs(float64(x))
		return rel <= 1.0/256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddNonAssociative(t *testing.T) {
	// The motivating example for §6.2: BF16 addition is not associative.
	a, b, c := float32(1), float32(1.0/256), float32(1.0/256)
	left := Add(Add(a, b), c)  // (1 + eps) + eps: each add rounds away eps
	right := Add(a, Add(b, c)) // 1 + 2eps: representable increment
	if left == right {
		t.Fatalf("expected non-associativity: (a+b)+c=%v, a+(b+c)=%v", left, right)
	}
}

func TestSumFP32BeatsSumBF16(t *testing.T) {
	// Summing many small same-sign values: the BF16 accumulator stalls once
	// acc >> element, FP32 accumulation does not.
	xs := make([]float32, 4096)
	for i := range xs {
		xs[i] = 1.0 / 512
	}
	exact := float64(len(xs)) / 512
	errBF := math.Abs(float64(SumBF16(xs)) - exact)
	errFP := math.Abs(float64(SumFP32(xs)) - exact)
	if errFP >= errBF {
		t.Fatalf("FP32 accumulation error %v not better than BF16 %v", errFP, errBF)
	}
	if errFP > 1e-3 {
		t.Fatalf("FP32 accumulation error too large: %v", errFP)
	}
}

func TestSumChunkedMatchesSelfOrder(t *testing.T) {
	// Two reductions with the same chunking must agree bitwise — the
	// foundation of the paper's implementation-bug-vs-numerics test.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float32, 1000)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		a := SumChunked(xs, n)
		b := SumChunked(xs, n)
		if math.Float32bits(a) != math.Float32bits(b) {
			t.Fatalf("n=%d: same order must be bitwise identical", n)
		}
	}
}

func TestSumChunkedOrderMatters(t *testing.T) {
	// Different chunkings generally differ in the low bits: numerics, not bugs.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float32, 100000)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64() * 1e3)
	}
	s1 := SumChunked(xs, 1)
	s8 := SumChunked(xs, 8)
	if math.Float32bits(s1) == math.Float32bits(s8) {
		t.Skip("orders happened to agree bitwise for this seed; extremely unlikely")
	}
	// But they must be close in value.
	if math.Abs(float64(s1-s8)) > 1e-1*math.Abs(float64(s1))+1 {
		t.Fatalf("chunked sums too far apart: %v vs %v", s1, s8)
	}
}

func TestSumChunkedEdgeCases(t *testing.T) {
	if got := SumChunked(nil, 4); got != 0 {
		t.Errorf("SumChunked(nil) = %v", got)
	}
	xs := []float32{1, 2, 3}
	if got := SumChunked(xs, 10); got != 6 {
		t.Errorf("SumChunked with n>len = %v, want 6", got)
	}
	if got := SumChunked(xs, 0); got != 6 {
		t.Errorf("SumChunked with n=0 = %v, want 6", got)
	}
}

func BenchmarkRound(b *testing.B) {
	x := float32(1.2345)
	for i := 0; i < b.N; i++ {
		x = Round(x + 1e-3)
	}
	_ = x
}

func BenchmarkSumFP32(b *testing.B) {
	xs := make([]float32, 8192)
	for i := range xs {
		xs[i] = float32(i%7) * 0.125
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SumFP32(xs)
	}
}
