package optim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// seedAdamWStep is a frozen copy of AdamW.Step's loop before the vector
// kernel, over explicit moments: the oracle the live Step must reproduce
// Float32bits-equal (NaN-ness for NaN) in weights and both moments.
func seedAdamWStep(a *AdamW, w, g, m, v []float32) {
	t := float64(a.steps)
	if t == 0 {
		t = 1
	}
	bc1 := float32(1 - math.Pow(float64(a.Beta1), t))
	bc2 := float32(1 - math.Pow(float64(a.Beta2), t))
	for i := range w {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= a.LR * (mh/(float32(math.Sqrt(float64(vh)))+a.Eps) + a.WeightDecay*w[i])
	}
}

func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// adamwSpecials are the values planted among the operands: signed zeros,
// denormals, NaNs with payloads, infinities, and magnitudes whose square
// overflows v.
var adamwSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x7fffff),
	float32(math.NaN()), math.Float32frombits(0xffa5a5a5), float32(math.Inf(1)), float32(math.Inf(-1)),
	1e20, -3e25, math.MaxFloat32,
}

// checkAdamWStep runs one Step of a on n random elements — w, g, m and v
// each inside its own canary-framed buffer at its own offset, specials
// planted where plant's bits say — and the seed loop on copies, and
// requires equal weights and moments and untouched canaries and gradient.
func checkAdamWStep(t *testing.T, a *AdamW, rng *rand.Rand, n int, plant byte) {
	t.Helper()
	const pad = 19
	canary := math.Float32frombits(0x7fc0dead)
	var bufs, seed [4][]float32 // w, g, m, v
	for k := range bufs {
		bufs[k] = make([]float32, pad+n+pad)
		for i := range bufs[k] {
			bufs[k][i] = canary
		}
		off := pad - (n+k)%4
		seed[k] = make([]float32, n)
		for i := range seed[k] {
			x := float32(rng.NormFloat64())
			switch {
			case k == 3:
				x *= x // v ≥ 0, as training leaves it
				if plant&0x40 != 0 && rng.Intn(4) == 0 {
					x = 0 // the eps path
				}
			case k == 1:
				x *= 1e-2
			}
			if plant>>(2*k)&3 != 0 && rng.Intn(int(8>>(plant>>(2*k)&3))) == 0 {
				x = adamwSpecials[rng.Intn(len(adamwSpecials))]
			}
			seed[k][i] = x
		}
		bufs[k] = bufs[k][off : off+n+pad]
		copy(bufs[k], seed[k])
	}
	live := func(k int) []float32 { return bufs[k][:n] }
	a.m, a.v = map[int][]float32{7: live(2)}, map[int][]float32{7: live(3)}
	a.Step(7, live(0), live(1))
	seedAdamWStep(a, seed[0], seed[1], seed[2], seed[3])
	for k, name := range []string{"w", "g", "m", "v"} {
		for i, x := range bufs[k][:n] {
			if !sameBits(x, seed[k][i]) {
				t.Fatalf("n=%d steps=%d: %s[%d] = %v (%#x), seed %v (%#x)",
					n, a.steps, name, i, x, math.Float32bits(x), seed[k][i], math.Float32bits(seed[k][i]))
			}
		}
		for i, x := range bufs[k][n:] {
			if math.Float32bits(x) != math.Float32bits(canary) {
				t.Fatalf("n=%d: %s canary %d past the end overwritten with %#x", n, name, i, math.Float32bits(x))
			}
		}
	}
}

// TestAdamWMatchesSeed holds Step to the seed loop on every length 0–300,
// 1<<16, and 1<<20 + 5 at GOMAXPROCS 4 (where the update splits across
// workers), at steps 1, 2 and 1000, with specials in every operand and
// v = 0 elements.
func TestAdamWMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, steps := range []int{1, 2, 1000} {
		a := NewAdamW(1e-3)
		a.steps = steps
		for n := 0; n <= 300; n++ {
			checkAdamWStep(t, a, rng, n, byte(n*37))
		}
		checkAdamWStep(t, a, rng, 1<<16, 0x55)
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	a := NewAdamW(3e-4)
	a.steps = 2
	checkAdamWStep(t, a, rng, 1<<20+5, 0xff)
}

// FuzzAdamW is TestAdamWMatchesSeed's check on fuzzed lengths, step counts,
// specials and hyper-parameters.
func FuzzAdamW(f *testing.F) {
	f.Add(int64(1), uint16(37), uint16(1), byte(0), float32(1e-3), float32(0.9), float32(0.95), float32(1e-8), float32(0.1))
	f.Add(int64(2), uint16(300), uint16(1000), byte(0xff), float32(1e-2), float32(0.9), float32(0.95), float32(1e-8), float32(0))
	f.Fuzz(func(t *testing.T, seed int64, nb, steps uint16, plant byte, lr, beta1, beta2, eps, wd float32) {
		a := NewAdamW(lr)
		a.Beta1, a.Beta2, a.Eps, a.WeightDecay, a.steps = beta1, beta2, eps, wd, int(steps)
		checkAdamWStep(t, a, rand.New(rand.NewSource(seed)), int(nb)%1100, plant)
	})
}
