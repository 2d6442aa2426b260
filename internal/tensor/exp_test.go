package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// expRef and sigmoidRef are ExpShift's and Sigmoid's contracts written out,
// one math.Exp call per element.
func expRef(x, shift float32) float32 { return float32(math.Exp(float64(x - shift))) }

func sigmoidRef(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }

// expEdges are the float32 inputs around which exp's result changes kind:
// the float32 overflow edge (ln MaxFloat32), the float32 denormal edge
// (ln 2⁻¹²⁶) and the round-to-zero edge (ln 2⁻¹⁵⁰), then archExp's own:
// its Overflow compare, the exponent at which it takes the denormal branch
// (x·log2e rounding to −1023) and the one at which it underflows to +0
// (rounding below −1075).
var expEdges = []float64{
	88.72283905206835, -87.33654475055310, -103.97207708399179,
	7.09782712893384e+02, -1022.5 * math.Ln2, -1075.5 * math.Ln2,
}

// expSamples are the tier-1 inputs of the vector exp: ±0, denormals, NaNs
// of both signs and kinds, ±Inf, ±MaxFloat32, 512 consecutive float32 values
// around each of expEdges (both signs), and every 65,537th of the 2³² bit
// patterns.
func expSamples() []float32 {
	xs := append([]float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32},
		specialFloats...)
	for _, bits := range []uint32{1, 0x7fffff, 0x400000, 0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fbfffff} {
		xs = append(xs, math.Float32frombits(bits), math.Float32frombits(bits^0x80000000))
	}
	for _, e := range expEdges {
		for _, c := range []float32{float32(e), -float32(e)} {
			b := math.Float32bits(c)
			for d := uint32(0); d < 512; d++ {
				xs = append(xs, math.Float32frombits(b-256+d))
			}
		}
	}
	for b := uint64(0); b < 1<<32; b += 65537 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	return xs
}

// TestExpShiftSamples holds ExpShift and Sigmoid — the vector exp where the
// host has it, the scalar loop under purego — Float32bits-equal (NaN-ness
// for NaN) to their math.Exp contracts on expSamples, at shift 0, at finite
// shifts, and at shifts of ±Inf and NaN.
func TestExpShiftSamples(t *testing.T) {
	t.Logf("vector exp selected: %v", useVecExp)
	xs := expSamples()
	for _, shift := range []float32{0, 1.5, -3.25, 87.5, -100, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		got := append([]float32(nil), xs...)
		ExpShift(got, shift)
		for i, x := range xs {
			if want := expRef(x, shift); !sameBits(got[i], want) {
				t.Fatalf("ExpShift(%v (%#x), shift %v) = %v (%#x), want %v (%#x)",
					x, math.Float32bits(x), shift, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
			}
		}
	}
	got := make([]float32, len(xs))
	Sigmoid(got, xs)
	for i, x := range xs {
		if want := sigmoidRef(x); !sameBits(got[i], want) {
			t.Fatalf("Sigmoid(%v (%#x)) = %v (%#x), want %v (%#x)",
				x, math.Float32bits(x), got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
}

// FuzzExpShift holds ExpShift and Sigmoid Float32bits-equal (NaN-ness for
// NaN) to their contracts at every length 0–300 — whole 8-lane blocks and
// every masked last block — on random bit patterns, with canaries past the
// slice end that neither may touch, and again on a slice that ends at a
// guard page, where a lane read or written past the end faults. The fuzzed
// bytes choose the shift's bits and how often an element is drawn from the
// whole float32 range instead of around zero.
func FuzzExpShift(f *testing.F) {
	f.Add(int64(1), uint32(0), byte(0))
	f.Add(int64(2), math.Float32bits(30), byte(0x80))
	f.Add(int64(3), uint32(0x7f800000), byte(0xff))
	f.Add(int64(4), uint32(0x7fc00000), byte(0x10))
	f.Fuzz(func(t *testing.T, seed int64, shiftBits uint32, wild byte) {
		rng := rand.New(rand.NewSource(seed))
		shift := math.Float32frombits(shiftBits)
		const maxLen, pad = 300, 8
		const canary = float32(-12345.5)
		src := make([]float32, maxLen+pad)
		for i := range src {
			if byte(rng.Intn(256)) < wild {
				src[i] = math.Float32frombits(rng.Uint32())
			} else {
				src[i] = float32(rng.NormFloat64() * 40)
			}
		}
		guard, guardSig := guardedFloats(t, maxLen), guardedFloats(t, maxLen)
		for n := 0; n <= maxLen; n++ {
			x, sx := guardedCopy(guard, src[:n]), guardedCopy(guardSig, src[:n])
			ExpShift(x, shift)
			Sigmoid(sx, sx)
			for i := range x {
				if want := expRef(src[i], shift); !sameBits(x[i], want) {
					t.Fatalf("ExpShift n=%d at a guard page: element %d = %v, want %v", n, i, x[i], want)
				}
				if want := sigmoidRef(src[i]); !sameBits(sx[i], want) {
					t.Fatalf("Sigmoid n=%d at a guard page: element %d = %v, want %v", n, i, sx[i], want)
				}
			}
			got := append([]float32(nil), src...)
			sig := make([]float32, len(src))
			for i := n; i < len(got); i++ {
				got[i], sig[i] = canary, canary
			}
			ExpShift(got[:n:n], shift)
			Sigmoid(sig[:n:n], src[:n])
			for i := range got {
				want, wantSig := canary, canary
				if i < n {
					want, wantSig = expRef(src[i], shift), sigmoidRef(src[i])
				}
				if !sameBits(got[i], want) {
					t.Fatalf("ExpShift n=%d shift=%v: element %d = %v (%#x), want %v (%#x) from %v (%#x)",
						n, shift, i, got[i], math.Float32bits(got[i]), want, math.Float32bits(want), src[i], math.Float32bits(src[i]))
				}
				if !sameBits(sig[i], wantSig) {
					t.Fatalf("Sigmoid n=%d: element %d = %v (%#x), want %v (%#x) from %v (%#x)",
						n, i, sig[i], math.Float32bits(sig[i]), wantSig, math.Float32bits(wantSig), src[i], math.Float32bits(src[i]))
				}
			}
		}
	})
}
