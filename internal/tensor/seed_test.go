package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Frozen copies of the seed's serial kernels, kept as oracles: every kernel
// rewrite since (tiling, unrolling, row-parallel splits, pooled outputs)
// preserved each output element's accumulation order, so the live kernels
// must reproduce these bit for bit.

// seedMatMul is the seed's serial kernel: untiled i-k-j, fresh allocation.
func seedMatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		oi := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := range bp {
				oi[j] += av * bp[j]
			}
		}
	}
	return out
}

// seedMatMulT is the seed's serial kernel: one scalar accumulator per output
// element (a single dependent FP add chain).
func seedMatMulT(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n := b.Rows()
	out := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		oi := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p := range ai {
				s += ai[p] * bj[p]
			}
			oi[j] = s
		}
	}
	return out
}

// seedTMatMul is the seed's serial kernel: p-outer over all output rows, so
// the whole output streams through cache once per reduction index.
func seedTMatMul(a, b *Tensor) *Tensor {
	k, m := a.Rows(), a.Cols()
	n := b.Cols()
	out := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			oi := out.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				oi[j] += av * bv
			}
		}
	}
	return out
}

// seedTranspose is the seed's kernel: row-major reads, strided writes.
func seedTranspose(a *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// transposed is TransposeBlock over the whole of a, into a fresh
// destination.
func transposed(a *Tensor) *Tensor {
	out := New(a.Cols(), a.Rows())
	TransposeBlock(out.Data, a.Rows(), a.Data, a.Cols(), a.Rows(), a.Cols())
	return out
}

// seedTMatMulAcc is seedTMatMul's loop over a caller's accumulator: the
// gradient-accumulation form, where every element's sum starts from the value
// already there.
func seedTMatMulAcc(out, a, b *Tensor) {
	k, m := a.Rows(), a.Cols()
	n := b.Cols()
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			oi := out.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				oi[j] += av * bv
			}
		}
	}
}

// seedSoftmaxRow is the seed's SoftmaxRow: one math.Exp call per element,
// each added to the row sum as it is computed.
func seedSoftmaxRow(xs []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range xs {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(float64(maxv), -1) {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	var sum float32
	for i, v := range xs {
		e := float32(math.Exp(float64(v - maxv)))
		xs[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range xs {
		xs[i] *= inv
	}
}

// sameBits is Float32bits equality, except that any NaN equals any NaN: Go
// leaves unspecified which payload survives when two different NaNs meet (it
// depends on the operand order the compiler picks for a commutative op), so
// only NaN-ness is part of the kernels' contract.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func sameTensorBits(a, b *Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if !sameBits(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}

// specialFloats are the values a kernel can mishandle without a finite test
// noticing: -0, ±Inf, NaN, the smallest and the largest denormal, the largest
// finite value.
var specialFloats = []float32{
	float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(1), -math.Float32frombits(0x7fffff),
	math.MaxFloat32,
}

// operandPatterns fill a [m,k] and b [k,n] of a product a@b. Zeros sit in a,
// the operand whose zeros MatMul and TMatMul skip; what sits opposite them in
// b decides whether the skip is observable.
var operandPatterns = []struct {
	name string
	fill func(rng *rand.Rand, a, b *Tensor)
}{
	{"dense", func(*rand.Rand, *Tensor, *Tensor) {}},
	// What masked probabilities produce: all-zero rows, whole 4-groups of
	// zeros (the kernel's all-zero fast path), groups with some zeros (its
	// mixed path), and -0, which compares equal to zero and is skipped too.
	{"zeros", zeroGroups},
	// Two reduction indices of b hold -0, ±Inf, NaN and denormals across the
	// columns, and every even row of a is zero there: MatMul and TMatMul skip
	// those terms and stay finite, MatMulT multiplies them and must not.
	{"specials", func(rng *rand.Rand, a, b *Tensor) {
		zeroGroups(rng, a, b)
		k, n := b.Rows(), b.Cols()
		for _, p := range []int{1 % k, k - 1} {
			for j := 0; j < n; j++ {
				b.Set(p, j, specialFloats[(j+p)%len(specialFloats)])
			}
			for i := 0; i < a.Rows(); i++ {
				if i%2 == 0 {
					a.Set(i, p, 0)
				} else if a.At(i, p) == 0 {
					a.Set(i, p, 0.5)
				}
			}
		}
	}},
}

func zeroGroups(rng *rand.Rand, a, _ *Tensor) {
	m, k := a.Rows(), a.Cols()
	negZero := float32(math.Copysign(0, -1))
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			switch g := i + p/4; {
			case i%5 == 3, g%3 == 0: // zero row, zero group
				a.Set(i, p, 0)
			case g%3 == 1 && rng.Intn(2) == 0: // mixed group
				a.Set(i, p, negZero)
			}
		}
	}
}

// TestKernelsMatchSeedBitwise compares each live kernel with its seed copy
// at the transformer shapes the train step hits — attention scores q·kᵀ,
// weight gradients xᵀ·dy, forward projections — all above the parallel
// threshold, plus a 1024² transpose; then all three products and the
// accumulating TMatMulAcc over kernelShapes (odd widths, every vector-tail
// length, a single row, the register tile's edges) × operandPatterns — on
// the GEMM path selected at init and, on an AVX-512 host, again on the
// per-row path.
func TestKernelsMatchSeedBitwise(t *testing.T) {
	t.Logf("kernels selected at init: AVX2 axpy4 and transpose = %v, AVX-512 register tile = %v, AVX-512 exp = %v",
		useAVX2, useAVX512, useVecExp)
	eachGEMMKernel(func(kernel string) {
		t.Logf("GEMM path: %s", kernel)
		testKernelsMatchSeed(t, kernel)
	})
}

func testKernelsMatchSeed(t *testing.T, kernel string) {
	rng := rand.New(rand.NewSource(1))
	q, k := RandN(rng, 1, 512, 128), RandN(rng, 1, 512, 128)
	x, dy := RandN(rng, 1, 512, 256), RandN(rng, 1, 512, 512)
	w := RandN(rng, 1, 256, 512)
	a := RandN(rng, 1, 1024, 1024)
	for _, tc := range []struct {
		name       string
		seed, live *Tensor
	}{
		{"MatMulT", seedMatMulT(q, k), MatMulT(q, k)},
		{"TMatMul", seedTMatMul(x, dy), TMatMul(x, dy)},
		{"MatMul", seedMatMul(x, w), MatMul(x, w)},
		{"Transpose", seedTranspose(a), transposed(a)},
	} {
		if !BitwiseEqual(tc.seed, tc.live) {
			t.Errorf("%s %s differs from its seed kernel", kernel, tc.name)
		}
	}

	for _, sh := range kernelShapes {
		for _, pat := range operandPatterns {
			a, b := RandN(rng, 1, sh.m, sh.k), RandN(rng, 1, sh.k, sh.n)
			pat.fill(rng, a, b)
			aT, bT := seedTranspose(a), seedTranspose(b)
			acc := RandN(rng, 1, sh.m, sh.n)
			seedAcc, liveAcc := acc.Clone(), acc.Clone()
			seedTMatMulAcc(seedAcc, aT, b)
			TMatMulAcc(liveAcc, aT, b)
			skip, noSkip := MatMul(a, b), MatMulT(a, bT)
			for _, tc := range []struct {
				name       string
				seed, live *Tensor
			}{
				{"MatMul", seedMatMul(a, b), skip},
				{"MatMulT", seedMatMulT(a, bT), noSkip},
				{"TMatMul", seedTMatMul(aT, b), TMatMul(aT, b)},
				{"TMatMulAcc", seedAcc, liveAcc},
			} {
				if !sameTensorBits(tc.seed, tc.live) {
					t.Errorf("%s %s m=%d k=%d n=%d %s: differs from its seed kernel", kernel, tc.name, sh.m, sh.k, sh.n, pat.name)
				}
			}
			if pat.name != "specials" {
				continue
			}
			// Row 0 of a is zero at both special indices: the skipping
			// products never see them, the dot product does.
			for j := 0; j < sh.n; j++ {
				if v := skip.At(0, j); v != v || math.IsInf(float64(v), 0) {
					t.Errorf("%s MatMul m=%d k=%d n=%d: skipped special reached out[0,%d] = %v", kernel, sh.m, sh.k, sh.n, j, v)
				}
			}
			if sameTensorBits(skip, noSkip) {
				t.Errorf("%s MatMulT m=%d k=%d n=%d: no NaN from 0·Inf — zeros in a were skipped", kernel, sh.m, sh.k, sh.n)
			}
		}
	}
}

// softmaxRowCases are rows whose exps meet every kind of result: NaN, ±Inf
// (an +Inf max turns every finite entry into +0 and itself into NaN), all
// −Inf (the zeroed row), −Inf beside finite values, float32 denormals, and
// gaps to the max past −87.3 (denormal exps) and −104 (exps of +0).
var softmaxRowCases = [][]float32{
	{float32(math.NaN()), 1, 2},
	{1, float32(math.Inf(1)), -3, float32(math.Inf(-1))},
	{float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1))},
	{float32(math.Inf(-1)), 0.5, float32(math.Inf(-1)), -2},
	{math.Float32frombits(1), -math.Float32frombits(0x7fffff), 0, float32(math.Copysign(0, -1))},
	{0, -50, -87.5, -90, -103.5, -104.5, -120, -1000, -math.MaxFloat32},
	{math.MaxFloat32, -math.MaxFloat32, 88.7, -88.7},
}

// TestSoftmaxRowMatchesSeed holds SoftmaxRow — its exp pass on the vector
// exp where the host has it — Float32bits-equal (NaN-ness for NaN) to the
// seed's, on softmaxRowCases and on random rows with those values planted,
// at every length 0–70 (no 8-lane block, whole blocks, every tail).
func TestSoftmaxRowMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var specials []float32
	for _, row := range softmaxRowCases {
		specials = append(specials, row...)
	}
	rows := softmaxRowCases
	for n := 0; n <= 70; n++ {
		for _, plant := range []int{0, 4, 16} {
			row := make([]float32, n)
			for j := range row {
				row[j] = float32(rng.NormFloat64() * 10)
				if plant > 0 && rng.Intn(plant) == 0 {
					row[j] = specials[rng.Intn(len(specials))]
				}
			}
			rows = append(rows, row)
		}
	}
	for _, row := range rows {
		want, got := append([]float32(nil), row...), append([]float32(nil), row...)
		seedSoftmaxRow(want)
		SoftmaxRow(got)
		for j := range row {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("SoftmaxRow(%v): element %d = %v (%#x), seed %v (%#x)",
					row, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
			}
		}
	}
}
