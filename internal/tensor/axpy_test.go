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

// FuzzMatMulTile holds the GEMM paths Float32bits-equal (NaN payloads aside)
// to the seed kernels — MatMul and TMatMulAcc skipping zero coefficients,
// MatMulT multiplying every term — at m = 1–13 (every leftover row count
// past a 4-row group), k = 1–300 (one, two or three tileK slabs) and
// n = 1–300 (every column tail past a 32-block, one or two tileN chunks).
// The fuzzed bytes plant zeros and specials at the group and slab
// boundaries, so a product mixes tiled blocks with per-row fallbacks. On an
// AVX-512 host it then calls tile4x32AVX512 itself on four rows, with the
// dst row stride ldd past the tile's width and canaries around every dst
// row, against the scalar loop that multiplies every term.
func FuzzMatMulTile(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(299), uint16(69), byte(0), byte(0))
	f.Add(int64(2), uint8(12), uint16(127), uint16(255), byte(0xff), byte(0))
	f.Add(int64(3), uint8(5), uint16(128), uint16(32), byte(0x0f), byte(0xf0))
	f.Add(int64(4), uint8(10), uint16(255), uint16(287), byte(0x55), byte(0xff))
	specials := append([]float32{0}, specialFloats...)
	f.Fuzz(func(t *testing.T, seed int64, mb uint8, kb, nb uint16, zeros, plant byte) {
		m, k, n := 1+int(mb)%13, 1+int(kb)%300, 1+int(nb)%300
		rng := rand.New(rand.NewSource(seed))
		a, b := RandN(rng, 1, m, k), RandN(rng, 1, k, n)
		// Boundary coordinates: first and last row of a 4-row group and the
		// leftover rows; first and last index of each slab.
		rows := []int{0, 3, 4, 7, 8, m - 1}
		ps := []int{0, tileK - 1, tileK, 2*tileK - 1, 2 * tileK, k - 1}
		for x, i := range rows {
			for y, p := range ps {
				if i >= m || p >= k {
					continue
				}
				bit := byte(1) << ((x + y) % 8)
				if zeros&bit != 0 {
					a.Set(i, p, specials[(x+y)%2]) // +0 or -0
				} else if plant&bit != 0 {
					a.Set(i, p, specials[1+(x*len(ps)+y)%len(specialFloats)])
				}
				if plant&bit != 0 {
					for j := (x + y) % 3; j < n; j += 3 {
						b.Set(p, j, specials[(j+p)%len(specials)])
					}
				}
			}
		}
		aT, bT := seedTranspose(a), seedTranspose(b)
		acc := RandN(rng, 1, m, n)
		seedAcc, liveAcc := acc.Clone(), acc.Clone()
		seedTMatMulAcc(seedAcc, aT, b)
		TMatMulAcc(liveAcc, aT, b)
		for _, tc := range []struct {
			name       string
			seed, live *Tensor
		}{
			{"MatMul", seedMatMul(a, b), MatMul(a, b)},
			{"MatMulT", seedMatMulT(a, bT), MatMulT(a, bT)},
			{"TMatMulAcc", seedAcc, liveAcc},
		} {
			if !sameTensorBits(tc.seed, tc.live) {
				t.Fatalf("%s m=%d k=%d n=%d: differs from its seed kernel", tc.name, m, k, n)
			}
		}

		nc := n &^ 31
		if !useAVX512 || nc == 0 {
			return
		}
		const pad = 8
		const canary = float32(-12345.5)
		ldd := nc + 1 + int(uint64(seed)%9)
		a4 := make([]float32, 4*k) // rows 0..3 of a, wrapping when m < 4
		for r := 0; r < 4; r++ {
			copy(a4[r*k:], a.Row(r%m))
		}
		got := make([]float32, pad+4*ldd+pad)
		for i := range got {
			got[i] = canary
		}
		for r := 0; r < 4; r++ {
			for j := 0; j < nc; j++ {
				got[pad+r*ldd+j] = float32(rng.NormFloat64())
			}
		}
		want := append([]float32(nil), got...)
		for r := 0; r < 4; r++ {
			for p := 0; p < k; p++ {
				for j := 0; j < nc; j++ {
					want[pad+r*ldd+j] += a4[r*k+p] * b.Data[p*n+j]
				}
			}
		}
		tile4x32AVX512(&got[pad], ldd, &a4[0], k, &b.Data[0], n, k, nc)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("tile m=4 k=%d nc=%d ldd=%d ldb=%d: element %d (row %d col %d past the pad) = %v (%#x), want %v (%#x)",
					k, nc, ldd, n, i, (i-pad)/ldd, (i-pad)%ldd, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}
