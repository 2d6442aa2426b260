package tensor

import (
	"sync"
	"testing"
)

// TestFLOPCountAllHeads verifies every public matmul head counts 2·m·k·n
// nominal FLOPs for its effective [m,k]@[k,n] product — regardless of which
// operand is transposed or whether it accumulates into a caller's tensor.
func TestFLOPCountAllHeads(t *testing.T) {
	const m, k, n = 3, 5, 7
	const want = 2 * m * k * n
	a := New(m, k)   // [m,k]
	bt := New(n, k)  // for a @ bᵀ
	at := New(k, m)  // for aᵀ @ b
	b := New(k, n)   // [k,n]
	acc := New(m, n) // for TMatMul heads: out is [a.Cols, b.Cols] = [m,n] with at [k,m]

	heads := []struct {
		name string
		run  func()
	}{
		{"MatMul", func() { MatMul(a, b) }},
		{"MatMulT", func() { MatMulT(a, bt) }},
		{"TMatMul", func() { TMatMul(at, b) }},
		{"TMatMulAcc", func() { TMatMulAcc(acc, at, b) }},
	}
	for _, h := range heads {
		before := FLOPCount()
		h.run()
		if got := FLOPCount() - before; got != want {
			t.Errorf("%s: counted %d FLOPs, want %d", h.name, got, want)
		}
	}
}

// TestResetFLOPCount checks the swap semantics: the previous total comes
// back and the counter restarts from zero.
func TestResetFLOPCount(t *testing.T) {
	ResetFLOPCount()
	MatMul(New(2, 3), New(3, 4))
	if prev := ResetFLOPCount(); prev != 2*2*3*4 {
		t.Errorf("ResetFLOPCount returned %d, want %d", prev, 2*2*3*4)
	}
	if got := FLOPCount(); got != 0 {
		t.Errorf("counter after reset = %d, want 0", got)
	}
}

// TestFLOPCountConcurrent checks the counter loses no updates under the
// goroutine-per-rank execution model.
func TestFLOPCountConcurrent(t *testing.T) {
	const workers, iters = 8, 50
	const per = 2 * 2 * 3 * 4
	before := FLOPCount()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := New(2, 3), New(3, 4)
			for i := 0; i < iters; i++ {
				MatMul(a, b)
			}
		}()
	}
	wg.Wait()
	if got := FLOPCount() - before; got != workers*iters*per {
		t.Errorf("counted %d FLOPs, want %d", got, workers*iters*per)
	}
}
