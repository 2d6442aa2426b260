package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// checkTransposeBlock runs TransposeBlock on the m×n block of a random
// [m, lds] source (raw bit patterns, NaN payloads included) into a [n, ldd]
// destination whose every other word, the row gaps and pad words past both
// ends, holds a canary; the block must equal seedTranspose's bit for bit and
// every canary must survive.
func checkTransposeBlock(t *testing.T, rng *rand.Rand, m, n, lds, ldd int) {
	t.Helper()
	const pad = 16
	canary := math.Float32frombits(0x7fc0dead) // a NaN no source word equals
	src := make([]float32, m*lds)
	for i := range src {
		if src[i] = math.Float32frombits(rng.Uint32()); math.Float32bits(src[i]) == 0x7fc0dead {
			src[i] = 0
		}
	}
	buf := make([]float32, pad+n*ldd+pad)
	for i := range buf {
		buf[i] = canary
	}
	if m > 0 && n > 0 {
		TransposeBlock(buf[pad:pad+(n-1)*ldd+m], ldd, src, lds, m, n)
	} else {
		TransposeBlock(buf[pad:pad], ldd, src, lds, m, n)
	}
	var want *Tensor
	if m > 0 {
		want = seedTranspose(FromSlice(src, m, lds)) // [lds, m]
	}
	for k, x := range buf {
		j, i := (k-pad)/max(ldd, 1), (k-pad)%max(ldd, 1)
		w := canary
		if k >= pad && j < n && i < m {
			w = want.Data[j*m+i]
		}
		if math.Float32bits(x) != math.Float32bits(w) {
			t.Fatalf("m=%d n=%d lds=%d ldd=%d: word %d (dst row %d col %d) = %#x, want %#x",
				m, n, lds, ldd, k-pad, j, i, math.Float32bits(x), math.Float32bits(w))
		}
	}
}

// TestTransposeMatchesSeed holds TransposeBlock to seedTranspose on every
// shape up to 40×40 at tight and padded strides, and on two shapes of about
// 2²⁰ elements; at those, also the GEMM entry points that transpose them
// split across workers: MatMulT's b (split over the product's workers) and
// TMatMul's a (one band per worker), against the seed kernels.
func TestTransposeMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for m := 0; m <= 40; m++ {
		for n := 0; n <= 40; n++ {
			checkTransposeBlock(t, rng, m, n, n, m)
			checkTransposeBlock(t, rng, m, n, n+3, m+5)
		}
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, sh := range [][2]int{{1024, 1024}, {1030, 1019}} {
		a := randMat(int64(sh[0]), sh[0], sh[1])
		if got := transposed(a); !BitwiseEqual(seedTranspose(a), got) {
			t.Fatalf("TransposeBlock %dx%d differs from seedTranspose", sh[0], sh[1])
		}
		// Four rows or columns on the other side put each product just
		// above parallelThreshold.
		x, y := randMat(1, 4, sh[1]), randMat(2, sh[0], 4)
		if got := MatMulT(x, a); !BitwiseEqual(seedMatMulT(x, a), got) {
			t.Fatalf("MatMulT with b %dx%d differs from seedMatMulT", sh[0], sh[1])
		}
		if got := TMatMul(a, y); !BitwiseEqual(seedTMatMul(a, y), got) {
			t.Fatalf("TMatMul with a %dx%d differs from seedTMatMul", sh[0], sh[1])
		}
	}
}

func TestTransposeBlockRejectsOverlappingStrides(t *testing.T) {
	for _, tc := range []struct{ lds, ldd int }{{7, 9}, {8, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lds %d, ldd %d: no panic for a 9x8 block", tc.lds, tc.ldd)
				}
			}()
			TransposeBlock(make([]float32, 100), tc.ldd, make([]float32, 100), tc.lds, 9, 8)
		}()
	}
}

// FuzzTranspose holds TransposeBlock to seedTranspose on fuzzed shapes up
// to 70×70 — sizes on and off multiples of 8, source and destination rows
// wider than the block, canaries around and between the destination rows —
// and the GEMM driver's split transposes at a forced worker count to the
// seed kernels: the shape as MatMulT's b and as TMatMul's a, each product
// written over a poisoned output.
func FuzzTranspose(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(70), uint8(69), uint8(3), uint8(5), uint8(2))
	f.Add(int64(3), uint8(17), uint8(64), uint8(0), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, mb, nb, sx, dx, wb uint8) {
		m, n := int(mb)%71, int(nb)%71
		rng := rand.New(rand.NewSource(seed))
		checkTransposeBlock(t, rng, m, n, n+int(sx)%9, m+int(dx)%9)
		if m == 0 || n == 0 {
			return
		}
		w := 1 + int(wb)%8
		a := randMat(seed, m, n)
		x, y := randMat(seed+1, 3, n), randMat(seed+2, m, 5)
		gotT, gotTM := poisoned(3, m), poisoned(n, 5)
		matMulTRows(gotT, x, a, w)
		tMatMulRows(gotTM, a, y, w, true)
		if !BitwiseEqual(seedMatMulT(x, a), gotT) || !BitwiseEqual(seedTMatMul(a, y), gotTM) {
			t.Fatalf("m=%d n=%d workers=%d: a split transpose changed a product", m, n, w)
		}
	})
}
