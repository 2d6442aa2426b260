package tensor

import (
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

// TestKernelsMatchSeedBitwise compares each live kernel with its seed copy
// at the transformer shapes the train step hits — attention scores q·kᵀ,
// weight gradients xᵀ·dy, forward projections — all above the parallel
// threshold, plus a 1024² transpose.
func TestKernelsMatchSeedBitwise(t *testing.T) {
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
		{"Transpose", seedTranspose(a), Transpose(a)},
	} {
		if !BitwiseEqual(tc.seed, tc.live) {
			t.Errorf("%s differs from its seed kernel", tc.name)
		}
	}
}
