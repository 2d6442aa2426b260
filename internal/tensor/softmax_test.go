package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The scalar loops the softmax sweeps' kernels are held to, written out.

func scaleMaxRef(x []float32, scale, m float32) float32 {
	for j := range x {
		x[j] *= scale
		if x[j] > m {
			m = x[j]
		}
	}
	return m
}

func rowMaxRef(x []float32, m float32) float32 {
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

func softmaxGradRef(ds, p []float32, dot float32) {
	for j := range ds {
		ds[j] = p[j] * (ds[j] - dot)
	}
}

func sumRef(x []float32, s float32) float32 {
	for _, v := range x {
		s += v
	}
	return s
}

func dotRef(a, b []float32, s float32) float32 {
	for j := range a {
		s += float32(a[j] * b[j])
	}
	return s
}

// softmaxMaxLen is the longest row the softmax fuzz targets try: no 16-lane
// block, one to five blocks, and every scalar tail.
const softmaxMaxLen = 80

// softmaxCanary marks the words past a slice that no kernel may write.
const softmaxCanary = float32(-12345.5)

var negZero = float32(math.Copysign(0, -1))

// softmaxSpecials are the values a fuzzed row plants: NaN, ±Inf, −Inf again
// (a masked score), ±0 twice each (the max's ties), and denormals.
var softmaxSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Inf(-1)),
	0, negZero, 0, negZero, math.Float32frombits(1), -math.Float32frombits(0x7fffff),
}

// fuzzRow fills x from rng: normal values, a special from softmaxSpecials
// with probability special/256 and, with probability wild/256, any bit
// pattern; with neg every positive value is negated, so the max is often a
// signed zero tied with the other sign.
func fuzzRow(rng *rand.Rand, x []float32, special, wild byte, neg bool) {
	for j := range x {
		v := float32(rng.NormFloat64() * 8)
		switch {
		case byte(rng.Intn(256)) < special:
			v = softmaxSpecials[rng.Intn(len(softmaxSpecials))]
		case byte(rng.Intn(256)) < wild:
			v = math.Float32frombits(rng.Uint32())
		}
		if neg && v > 0 {
			v = -v
		}
		x[j] = v
	}
}

// withCanaries returns a copy of src in a slice of length len(src) whose
// backing array holds canaries past its end.
func withCanaries(src []float32) []float32 {
	buf := make([]float32, len(src)+8)
	copy(buf, src)
	for i := len(src); i < len(buf); i++ {
		buf[i] = softmaxCanary
	}
	return buf[:len(src):len(src)]
}

// guardedCopy returns a copy of src that ends where guard, a guardedFloats
// buffer at least as long, ends: one element further is an unmapped page.
func guardedCopy(guard, src []float32) []float32 {
	x := guard[len(guard)-len(src):]
	copy(x, src)
	return x
}

// checkRow fails unless got equals want bit for bit (NaN-ness for NaN) and,
// when got has canaries past its end, they are intact.
func checkRow(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)",
				label, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
	for j, v := range got[len(got):cap(got)] {
		if v != softmaxCanary {
			t.Fatalf("%s: wrote %v at %d past the end", label, v, j)
		}
	}
}

func checkValue(t *testing.T, label string, got, want float32) {
	t.Helper()
	if !sameBits(got, want) {
		t.Fatalf("%s = %v (%#x), want %v (%#x)", label, got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// TestScaleMaxZeroTie pins the max's one order-dependent case: on lanes a
// ±0 tie could end on either zero, and ScaleMax and rowMax must return the
// first zero of the row, or m when m is itself a zero.
func TestScaleMaxZeroTie(t *testing.T) {
	for _, first := range []float32{0, negZero} {
		for _, at := range []int{0, 5, 16, 31} {
			x := make([]float32, 32)
			for j := range x {
				x[j] = -1
			}
			x[at], x[31-at/2] = first, -first
			for _, m := range []float32{float32(math.Inf(-1)), -3, 0, negZero} {
				want := scaleMaxRef(append([]float32(nil), x...), 1, m)
				checkValue(t, "ScaleMax", ScaleMax(append([]float32(nil), x...), 1, m), want)
				checkValue(t, "rowMax", rowMax(x, m), want)
			}
		}
	}
}

// FuzzScaleMax holds ScaleMax and its read-only form rowMax Float32bits-equal
// to their scalar loops, products and max, at every length 0–80, with
// canaries past the slice and with the slice ending at a guard page. The
// fuzzed values choose the scale (a zero scale makes every product a signed
// zero), the starting max m, and the rows' specials.
func FuzzScaleMax(f *testing.F) {
	f.Add(int64(1), math.Float32bits(0.25), math.Float32bits(float32(math.Inf(-1))), byte(0x20), byte(0), false)
	f.Add(int64(2), uint32(0), math.Float32bits(float32(math.Inf(-1))), byte(0x40), byte(0), true)
	f.Add(int64(3), math.Float32bits(1), math.Float32bits(negZero), byte(0x80), byte(0), true)
	f.Add(int64(4), math.Float32bits(-0.5), uint32(0x7fc00000), byte(0x10), byte(0x40), false)
	f.Fuzz(func(t *testing.T, seed int64, scaleBits, mBits uint32, special, wild byte, neg bool) {
		rng := rand.New(rand.NewSource(seed))
		scale, m := math.Float32frombits(scaleBits), math.Float32frombits(mBits)
		src := make([]float32, softmaxMaxLen)
		guard := guardedFloats(t, softmaxMaxLen)
		for n := 0; n <= softmaxMaxLen; n++ {
			fuzzRow(rng, src[:n], special, wild, neg)
			want := append([]float32(nil), src[:n]...)
			wantMax := scaleMaxRef(want, scale, m)
			got := withCanaries(src[:n])
			checkValue(t, "ScaleMax max", ScaleMax(got, scale, m), wantMax)
			checkRow(t, "ScaleMax", got, want)
			got = guardedCopy(guard, src[:n])
			checkValue(t, "guarded ScaleMax max", ScaleMax(got, scale, m), wantMax)
			checkRow(t, "guarded ScaleMax", got, want)

			got = guardedCopy(guard, src[:n])
			checkValue(t, "rowMax", rowMax(got, m), rowMaxRef(src[:n], m))
			checkRow(t, "rowMax input", got, src[:n])
		}
	})
}

// FuzzScaleRow holds ScaleRow Float32bits-equal to `x[j] *= a` at every
// length 0–80, with canaries and at a guard page, the factor any bit
// pattern: zero (the normalise of an all-+0 row), ±Inf and NaN included.
func FuzzScaleRow(f *testing.F) {
	f.Add(int64(1), math.Float32bits(0.125), byte(0x20), byte(0))
	f.Add(int64(2), uint32(0), byte(0x40), byte(0))
	f.Add(int64(3), uint32(0x7f800000), byte(0x40), byte(0))
	f.Add(int64(4), uint32(0x7fc00000), byte(0x10), byte(0x80))
	f.Fuzz(func(t *testing.T, seed int64, aBits uint32, special, wild byte) {
		rng := rand.New(rand.NewSource(seed))
		a := math.Float32frombits(aBits)
		src := make([]float32, softmaxMaxLen)
		guard := guardedFloats(t, softmaxMaxLen)
		for n := 0; n <= softmaxMaxLen; n++ {
			fuzzRow(rng, src[:n], special, wild, false)
			want := append([]float32(nil), src[:n]...)
			for j := range want {
				want[j] *= a
			}
			got := withCanaries(src[:n])
			ScaleRow(got, a)
			checkRow(t, "ScaleRow", got, want)
			got = guardedCopy(guard, src[:n])
			ScaleRow(got, a)
			checkRow(t, "guarded ScaleRow", got, want)
		}
	})
}

// FuzzSoftmaxGradRow holds SoftmaxGradRow Float32bits-equal to
// `ds[j] = p[j]·(ds[j] − dot)` at every length 0–80, with canaries past ds
// and with ds and p each ending at a guard page; dot is any bit pattern,
// ±Inf and NaN included, and p holds −Inf and the zeros of masked entries.
func FuzzSoftmaxGradRow(f *testing.F) {
	f.Add(int64(1), math.Float32bits(0.5), byte(0x20), byte(0))
	f.Add(int64(2), uint32(0x7f800000), byte(0x40), byte(0))
	f.Add(int64(3), uint32(0xff800000), byte(0x40), byte(0))
	f.Add(int64(4), uint32(0x7fc00000), byte(0x10), byte(0x80))
	f.Fuzz(func(t *testing.T, seed int64, dotBits uint32, special, wild byte) {
		rng := rand.New(rand.NewSource(seed))
		dot := math.Float32frombits(dotBits)
		ds, p := make([]float32, softmaxMaxLen), make([]float32, softmaxMaxLen)
		guard, guardP := guardedFloats(t, softmaxMaxLen), guardedFloats(t, softmaxMaxLen)
		for n := 0; n <= softmaxMaxLen; n++ {
			fuzzRow(rng, ds[:n], special, wild, false)
			fuzzRow(rng, p[:n], special, wild, false)
			want := append([]float32(nil), ds[:n]...)
			softmaxGradRef(want, p[:n], dot)
			got := withCanaries(ds[:n])
			SoftmaxGradRow(got, withCanaries(p[:n]), dot)
			checkRow(t, "SoftmaxGradRow", got, want)
			got = guardedCopy(guard, ds[:n])
			SoftmaxGradRow(got, guardedCopy(guardP, p[:n]), dot)
			checkRow(t, "guarded SoftmaxGradRow", got, want)
		}
	})
}

// rowChainCase fills eight rows of length n at stride ld in a buffer whose
// last row ends at a guard page, and returns the buffer from row 0 on.
func rowChainCase(t *testing.T, rng *rand.Rand, n, ld int, special, wild byte) []float32 {
	x := guardedFloats(t, 7*ld+n)
	for i := range x {
		x[i] = softmaxCanary
	}
	for r := 0; r < 8; r++ {
		fuzzRow(rng, x[r*ld:r*ld+n], special, wild, false)
	}
	return x
}

// chainStarts are the accumulators the row-chain fuzz targets start from:
// the fuzzed bits, ±0 and normal values.
func chainStarts(rng *rand.Rand, bits uint32) [8]float32 {
	acc := [8]float32{math.Float32frombits(bits), 0, negZero}
	for r := 3; r < len(acc); r++ {
		acc[r] = float32(rng.NormFloat64())
	}
	return acc
}

// FuzzSumRows8 holds SumRows8 Float32bits-equal to eight single-row sum
// chains from the fuzzed starting values, at every length 0–80 (whole
// eight-column blocks and every tail) and every stride gap 0–3, the last
// row ending at a guard page; nothing outside the rows may be written.
func FuzzSumRows8(f *testing.F) {
	f.Add(int64(1), uint32(0), byte(0x20), byte(0))
	f.Add(int64(2), math.Float32bits(negZero), byte(0x40), byte(0))
	f.Add(int64(3), math.Float32bits(1e30), byte(0x10), byte(0x80))
	f.Fuzz(func(t *testing.T, seed int64, accBits uint32, special, wild byte) {
		rng := rand.New(rand.NewSource(seed))
		acc0 := chainStarts(rng, accBits)
		for n := 0; n <= softmaxMaxLen; n++ {
			ld := n + rng.Intn(4)
			x := rowChainCase(t, rng, n, ld, special, wild)
			in := append([]float32(nil), x...)
			acc := acc0
			SumRows8(&acc, x, ld, n)
			for r := range acc {
				checkValue(t, "SumRows8", acc[r], sumRef(x[r*ld:r*ld+n], acc0[r]))
			}
			checkRow(t, "SumRows8 input", x, in)
		}
	})
}

// FuzzDotRows8 holds DotRows8 Float32bits-equal to eight single-row dot
// chains, each product rounded before its add, at every length 0–80 and
// unequal strides, both operands' last rows ending at a guard page.
func FuzzDotRows8(f *testing.F) {
	f.Add(int64(1), uint32(0), byte(0x20), byte(0))
	f.Add(int64(2), math.Float32bits(negZero), byte(0x40), byte(0))
	f.Add(int64(3), math.Float32bits(-7), byte(0x10), byte(0x80))
	f.Fuzz(func(t *testing.T, seed int64, accBits uint32, special, wild byte) {
		rng := rand.New(rand.NewSource(seed))
		acc0 := chainStarts(rng, accBits)
		for n := 0; n <= softmaxMaxLen; n++ {
			lda, ldb := n+rng.Intn(4), n+rng.Intn(4)
			a := rowChainCase(t, rng, n, lda, special, wild)
			b := rowChainCase(t, rng, n, ldb, special, wild)
			acc := acc0
			DotRows8(&acc, a, lda, b, ldb, n)
			for r := range acc {
				checkValue(t, "DotRows8", acc[r], dotRef(a[r*lda:r*lda+n], b[r*ldb:r*ldb+n], acc0[r]))
			}
		}
	})
}

// TestSoftmaxRowsMatchesSoftmaxRow holds SoftmaxRows, whose row sums run
// eight rows at a time, Float32bits-equal to SoftmaxRow row by row, at row
// counts that leave 0–7 rows to the single-row path, with a dead row (all
// −Inf) inside a group of eight and specials planted.
func TestSoftmaxRowsMatchesSoftmaxRow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rows := range []int{1, 3, 7, 8, 9, 16, 21} {
		for _, cols := range []int{1, 15, 16, 33, 80} {
			a := New(rows, cols)
			fuzzRow(rng, a.Data, 0x20, 0, false)
			for j := range a.Row(rows / 2) {
				a.Row(rows / 2)[j] = float32(math.Inf(-1))
			}
			want := a.Clone()
			for i := 0; i < rows; i++ {
				SoftmaxRow(want.Row(i))
			}
			SoftmaxRows(a)
			checkRow(t, "SoftmaxRows", a.Data, want.Data)
		}
	}
}
