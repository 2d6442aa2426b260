package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// axpy4Ref is the contract written out: four separately rounded
// multiply-then-add steps per element, in term order.
func axpy4Ref(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	for j := range dst {
		v := dst[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// FuzzAxpy4 holds axpy4 — the assembly on an AVX2 machine, the scalar loop
// under purego — Float32bits-equal (NaN payloads aside, see sameBits) to the
// reference at every length 0–70 (no 32-block, 8-blocks only, every scalar
// tail) and every sub-slice offset 0–7, so loads and stores run at all
// alignments; canary elements on both sides of dst catch a store outside it.
// The fuzzed bytes choose coefficients and plant non-finite and denormal
// values in the operands.
func FuzzAxpy4(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0))
	f.Add(int64(2), byte(0xff), byte(0))
	f.Add(int64(3), byte(0x0f), byte(0xff))
	specials := append([]float32{0}, specialFloats...)
	f.Fuzz(func(t *testing.T, seed int64, plant, coef byte) {
		rng := rand.New(rand.NewSource(seed))
		const maxLen, pad = 70, 8
		const canary = float32(-12345.5)
		fill := func() []float32 {
			buf := make([]float32, pad+7+maxLen+pad)
			for i := range buf {
				buf[i] = float32(rng.NormFloat64())
				// plant's bit i%8 decides whether operand position i may
				// hold a special; which one is drawn.
				if plant>>(i%8)&1 == 1 && rng.Intn(4) == 0 {
					buf[i] = specials[rng.Intn(len(specials))]
				}
			}
			return buf
		}
		var a [4]float32
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			if coef>>i&1 == 1 {
				a[i] = specials[int(coef>>4+byte(i))%len(specials)]
			}
		}
		dstBuf := fill()
		bBuf := [4][]float32{fill(), fill(), fill(), fill()}
		for n := 0; n <= maxLen; n++ {
			for off := 0; off < 8; off++ {
				got := append([]float32(nil), dstBuf...)
				for i := range got[:pad+off] {
					got[i] = canary
				}
				for i := range got[pad+off+n:] {
					got[pad+off+n+i] = canary
				}
				want := append([]float32(nil), got...)
				var b [4][]float32
				for i := range b { // each operand at its own alignment
					o := pad + (off+i+1)%8
					b[i] = bBuf[i][o : o+n]
				}
				lo, hi := pad+off, pad+off+n
				axpy4Ref(want[lo:hi], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				axpy4(got[lo:hi:hi], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("n=%d off=%d: element %d (dst is [%d,%d)) = %v (%#x), want %v (%#x)",
							n, off, i, lo, hi, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}
