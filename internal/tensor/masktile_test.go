package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// holdsZero is the zero scan's contract, and was AccumBlock's scalar gate
// before the vector scan: whether the 4×kc coefficient block whose row r
// starts at a[r·lda] holds a value equal to zero (±0; a NaN is not).
func holdsZero(a []float32, lda, kc int) bool {
	for r := 0; r < 4; r++ {
		for _, v := range a[r*lda : r*lda+kc] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// FuzzAccumBlockSkip holds the masked register tiles, called directly on
// four rows, Float32bits-equal (NaN payloads aside) to the scalar loop
// `if skip && av == 0 { continue }; dst[j] += av·b[j]` at widths 1–48 (head
// dim 8, every tail past a 16-block, up to three blocks) and kc = 1–160:
// tile4x16MaskAVX512 over the whole width, and with skip on and a width of
// 32 or more AccumBlock's route for a zero-holding group, tile4x32MaskAVX512
// over the 32-blocks and the masked 4×16 tile over the rest. Coefficients are ±0 and NaN at random (row, p); every b
// row under a zero coefficient carries ±Inf and NaN, where dropping the term
// is observable; accumulators are −0 at random. The dst rows sit ldd > width
// apart with canaries in every gap and on both ends, and the b operand ends
// where a page with no access begins, so a lane past the width that is read
// faults and one that is written shows.
func FuzzAccumBlockSkip(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(15), byte(0x11), byte(0x22), true)
	f.Add(int64(2), uint8(15), uint8(63), byte(0xff), byte(0x00), true)
	f.Add(int64(3), uint8(36), uint8(127), byte(0x0f), byte(0xf0), false)
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	negZero := float32(math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed int64, wb, kb uint8, zeros, nans byte, skip bool) {
		if !useAVX512 {
			t.Skip("no AVX-512 register tile on this host")
		}
		const pad = 8
		const canary = float32(-12345.5)
		w, kc := 1+int(wb)%48, 1+int(kb)%160
		rng := rand.New(rand.NewSource(seed))
		u := uint64(seed)
		lda, ldb, ldd := kc+int(u%5), w+int(u/5%7), w+1+int(u/35%9)
		a := make([]float32, 3*lda+kc)
		for i := range a {
			a[i] = float32(math.NaN()) // the stride gaps; read, they would add
		}
		underZero := make([]bool, kc)
		for r := 0; r < 4; r++ {
			for p := 0; p < kc; p++ {
				v := float32(rng.NormFloat64())
				bit := byte(1) << ((r*kc + p) % 8)
				switch {
				case zeros&bit != 0 && rng.Intn(3) == 0:
					v = 0
					if rng.Intn(2) == 0 {
						v = negZero
					}
					underZero[p] = true
				case nans&bit != 0 && rng.Intn(4) == 0:
					v = float32(math.NaN())
				}
				a[r*lda+p] = v
			}
		}
		b := guardedFloats(t, (kc-1)*ldb+w)
		for i := range b {
			b[i] = float32(rng.NormFloat64())
			if p := i / ldb; i%ldb >= w || (underZero[p] && rng.Intn(2) == 0) {
				b[i] = specials[rng.Intn(len(specials))]
			}
		}
		got := make([]float32, pad+3*ldd+w+pad)
		for i := range got {
			got[i] = canary
		}
		for r := 0; r < 4; r++ {
			for j := 0; j < w; j++ {
				got[pad+r*ldd+j] = float32(rng.NormFloat64())
				if rng.Intn(4) == 0 {
					got[pad+r*ldd+j] = negZero
				}
			}
		}
		want := append([]float32(nil), got...)
		for r := 0; r < 4; r++ {
			for p := 0; p < kc; p++ {
				av := a[r*lda+p]
				if skip && av == 0 {
					continue
				}
				for j := 0; j < w; j++ {
					want[pad+r*ldd+j] += av * b[p*ldb+j]
				}
			}
		}
		check := func(kernel string, run func(dst []float32)) {
			dst := append([]float32(nil), got...)
			run(dst)
			for i := range dst {
				if !sameBits(dst[i], want[i]) {
					t.Fatalf("%s width=%d kc=%d lda=%d ldb=%d ldd=%d skip=%v: element %d (row %d col %d past the pad) = %v (%#x), want %v (%#x)",
						kernel, w, kc, lda, ldb, ldd, skip, i, (i-pad)/ldd, (i-pad)%ldd, dst[i], math.Float32bits(dst[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
		check("tile4x16Mask", func(dst []float32) {
			tile4x16MaskAVX512(&dst[pad], ldd, &a[0], lda, &b[0], ldb, kc, w, skip)
		})
		if n32 := w &^ 31; skip && n32 > 0 {
			check("tile4x32Mask+tile4x16Mask", func(dst []float32) {
				tile4x32MaskAVX512(&dst[pad], ldd, &a[0], lda, &b[0], ldb, kc, n32)
				if n32 < w {
					tile4x16MaskAVX512(&dst[pad+n32], ldd, &a[0], lda, &b[n32], ldb, kc, w-n32, true)
				}
			})
		}
	})
}

// FuzzZeroScan holds zeroGroupsAVX512 equal to holdsZero on every group of
// ng = 1–64 groups of four rows, kc = 1–300 (mostly not a multiple of 16),
// with NaNs planted at random (not zeros) and +0 in every stride gap (not
// the block's: a scan that reads past kc reports it). The last row ends
// where a page with no access begins. It then plants a single ±0 at every
// position of one zero-free group in turn, which the scan must report, and
// only that group's bit may change.
func FuzzZeroScan(f *testing.F) {
	f.Add(int64(1), uint16(15), uint8(0), byte(0x00))
	f.Add(int64(2), uint16(16), uint8(63), byte(0x81))
	f.Add(int64(3), uint16(128), uint8(7), byte(0xff))
	f.Fuzz(func(t *testing.T, seed int64, kb uint16, gb uint8, nans byte) {
		if !useAVX512 {
			t.Skip("no AVX-512 register tile on this host")
		}
		kc, ng := 1+int(kb)%300, 1+int(gb)%64
		rng := rand.New(rand.NewSource(seed))
		lda := kc + int(uint64(seed)%7)
		a := guardedFloats(t, (4*ng-1)*lda+kc)
		for i := range a {
			a[i] = 0 // the stride gaps
			if i%lda < kc {
				a[i] = float32(rng.NormFloat64())
				if nans>>(i%8)&1 != 0 && rng.Intn(3) == 0 {
					a[i] = float32(math.NaN())
				}
				if rng.Intn(4*kc*ng) < ng/2+1 {
					a[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
				}
			}
		}
		oracle := func() uint64 {
			var bits uint64
			for g := 0; g < ng; g++ {
				if holdsZero(a[4*g*lda:], lda, kc) {
					bits |= 1 << g
				}
			}
			return bits
		}
		want := oracle()
		if got := zeroGroupsAVX512(&a[0], lda, kc, ng); got != want {
			t.Fatalf("kc=%d ng=%d lda=%d: scan %#x, want %#x", kc, ng, lda, got, want)
		}
		g := rng.Intn(ng)
		for r := 0; r < 4; r++ {
			for p := 0; p < kc; p++ {
				if a[(4*g+r)*lda+p] == 0 {
					a[(4*g+r)*lda+p] = 1
				}
			}
		}
		want = oracle()
		for r := 0; r < 4; r++ {
			for p := 0; p < kc; p++ {
				x := &a[(4*g+r)*lda+p]
				old := *x
				*x = float32(math.Copysign(0, float64(p%2*2-1)))
				if got := zeroGroupsAVX512(&a[0], lda, kc, ng); got != want|1<<g {
					t.Fatalf("kc=%d ng=%d lda=%d: zero at group %d row %d p %d: scan %#x, want %#x", kc, ng, lda, g, r, p, got, want|1<<g)
				}
				*x = old
			}
		}
	})
}

// TestAccumBlockShortOperandPanics: a stride below its row width, or any
// operand one element short of its extent, panics naming the shapes before
// anything is written — with the register tiles on and off. Before the check
// the tiles read past a short b and wrote past a short out.
func TestAccumBlockShortOperandPanics(t *testing.T) {
	const m, k, n, pad = 4, 4, 32, 8
	const canary = float32(-12345.5)
	defer func(sel bool) { useAVX512 = sel }(useAVX512)
	for _, tiles := range []bool{useAVX512, false} {
		useAVX512 = tiles
		for _, tc := range []struct {
			name               string
			outLen, aLen, bLen int
			ldo, lda, ldb      int
		}{
			{"out short", (m-1)*n + n - 1, m * k, k * n, n, k, n},
			{"a short", m * n, m*k - 1, k * n, n, k, n},
			{"b short", m * n, m * k, k*n - 1, n, k, n},
			{"ldo < n", m * n, m * k, k * n, n - 1, k, n},
			{"lda < k", m * n, m * k, k * n, n, k - 1, n},
			{"ldb < n", m * n, m * k, k * n, n, k, n - 1},
		} {
			buf := make([]float32, pad+tc.outLen+pad)
			for i := range buf {
				buf[i] = canary
			}
			a, b := make([]float32, tc.aLen), make([]float32, tc.bLen)
			for i := range a {
				a[i] = 1
			}
			for i := range b {
				b[i] = 1000
			}
			func() {
				defer func() {
					if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "AccumBlock") {
						t.Fatalf("%s tiles=%v: recovered %v, want AccumBlock's panic", tc.name, tiles, p)
					}
				}()
				AccumBlock(buf[pad:pad+tc.outLen], tc.ldo, a, tc.lda, b, tc.ldb, m, k, n, true)
			}()
			for i, v := range buf {
				if v != canary {
					t.Fatalf("%s tiles=%v: element %d of out (pad %d) written before the panic: %v", tc.name, tiles, i, pad, v)
				}
			}
		}
	}
}
