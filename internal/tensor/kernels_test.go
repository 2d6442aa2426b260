package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// forcedWorkers exercises chunk boundaries that divide the rows evenly,
// unevenly, and not at all (workers > rows).
var forcedWorkers = []int{1, 2, 3, 4, 7}

func randMat(seed int64, r, c int) *Tensor {
	return RandN(rand.New(rand.NewSource(seed)), 1, r, c)
}

// kernelShapes covers divisible and non-divisible row counts around the
// chunking boundaries, including single-row and prime dimensions; and the
// register tile's edges: k past one tileK slab with a tail, n = 32·j + tail
// on both sides of a tileN chunk, every leftover row count m mod 4, and rows
// past one 64-group window.
var kernelShapes = []struct{ m, k, n int }{
	{1, 3, 2},
	{7, 5, 9},
	{63, 17, 31},
	{64, 64, 64},
	{65, 33, 127},
	{127, 128, 65},
	{256, 64, 50},
	{9, 300, 70},
	{10, 129, 33},
	{11, 257, 300},
	{12, 200, 288},
	{261, 40, 70},
}

// eachGEMMKernel runs body with the GEMM kernel selected at init and, when
// that is the AVX-512 register tile, again with the tile off — the per-row
// axpy4 path an AVX2-only host runs — restoring the selection afterwards.
func eachGEMMKernel(body func(kernel string)) {
	defer func(sel bool) { useAVX512 = sel }(useAVX512)
	if useAVX512 {
		body("tile4x32")
		useAVX512 = false
	}
	body("per-row")
}

// TestMatMulForcedWorkersBitwise pins the §6.2 determinism contract for the
// row-parallel MatMul split: any worker count produces bitwise-identical
// output, because each output element's reduction order is independent of the
// chunk boundaries. Worker counts are forced on the internal kernel so the
// parallel code paths run even where GOMAXPROCS would choose 1.
func TestMatMulForcedWorkersBitwise(t *testing.T) {
	eachGEMMKernel(func(kernel string) { testMatMulForcedWorkers(t, kernel) })
}

func testMatMulForcedWorkers(t *testing.T, kernel string) {
	for _, sh := range kernelShapes {
		a := randMat(int64(sh.m*1000+sh.n), sh.m, sh.k)
		b := randMat(int64(sh.k*1000+sh.m), sh.k, sh.n)
		ref := New(sh.m, sh.n)
		matMulRows(ref, a, b, nil, 1, true, false)

		// The serial tiled kernel must also match the textbook i-j-k triple
		// loop exactly: per element, both sum a[i][p]·b[p][j] in increasing p.
		naive := New(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			for p := 0; p < sh.k; p++ {
				av := a.At(i, p)
				for j := 0; j < sh.n; j++ {
					naive.Data[i*sh.n+j] += av * b.At(p, j)
				}
			}
		}
		if !BitwiseEqual(ref, naive) {
			t.Fatalf("%s m=%d k=%d n=%d: tiled serial MatMul differs from naive", kernel, sh.m, sh.k, sh.n)
		}

		// The overwriting form on a poisoned output: every worker clears
		// its own rows.
		for _, w := range forcedWorkers {
			out := poisoned(sh.m, sh.n)
			matMulRows(out, a, b, nil, w, true, true)
			if !BitwiseEqual(ref, out) {
				t.Fatalf("%s m=%d k=%d n=%d workers=%d: MatMul not bitwise equal to serial", kernel, sh.m, sh.k, sh.n, w)
			}
		}
	}
}

// poisoned returns an [r, c] tensor of NaNs: an output row a kernel leaves
// unwritten stays NaN and fails a bitwise comparison.
func poisoned(r, c int) *Tensor {
	t := New(r, c)
	t.Fill(float32(math.NaN()))
	return t
}

func TestMatMulTForcedWorkersBitwise(t *testing.T) {
	eachGEMMKernel(func(kernel string) { testMatMulTForcedWorkers(t, kernel) })
}

func testMatMulTForcedWorkers(t *testing.T, kernel string) {
	for _, sh := range kernelShapes {
		// a [m,k] @ b[n,k]ᵀ -> [m,n]
		a := randMat(int64(sh.m+7), sh.m, sh.k)
		b := randMat(int64(sh.n+13), sh.n, sh.k)
		ref := poisoned(sh.m, sh.n)
		matMulTRows(ref, a, b, 1)
		for _, w := range forcedWorkers[1:] {
			out := poisoned(sh.m, sh.n)
			matMulTRows(out, a, b, w)
			if !BitwiseEqual(ref, out) {
				t.Fatalf("%s m=%d k=%d n=%d workers=%d: MatMulT not bitwise equal to serial", kernel, sh.m, sh.k, sh.n, w)
			}
		}
	}
}

// TestTMatMulAccForcedWorkersBitwise starts from a nonzero accumulator — the
// gradient-accumulation use — so the test also proves the += path is split-
// invariant, not just the zeroed overwrite.
func TestTMatMulAccForcedWorkersBitwise(t *testing.T) {
	eachGEMMKernel(func(kernel string) { testTMatMulAccForcedWorkers(t, kernel) })
}

func testTMatMulAccForcedWorkers(t *testing.T, kernel string) {
	for _, sh := range kernelShapes {
		// a [k,m]ᵀ @ b [k,n] -> [m,n]
		a := randMat(int64(sh.k+29), sh.k, sh.m)
		b := randMat(int64(sh.k+31), sh.k, sh.n)
		init := randMat(int64(sh.m+37), sh.m, sh.n)
		ref := init.Clone()
		tMatMulRows(ref, a, b, 1, false)
		zeroRef := New(sh.m, sh.n)
		tMatMulRows(zeroRef, a, b, 1, false)
		for _, w := range forcedWorkers {
			out := init.Clone()
			tMatMulRows(out, a, b, w, false)
			if !BitwiseEqual(ref, out) {
				t.Fatalf("%s m=%d k=%d n=%d workers=%d: TMatMulAcc not bitwise equal to serial", kernel, sh.m, sh.k, sh.n, w)
			}
			// The overwriting form (TMatMul) on a poisoned output equals
			// accumulating from zero.
			out = poisoned(sh.m, sh.n)
			tMatMulRows(out, a, b, w, true)
			if !BitwiseEqual(zeroRef, out) {
				t.Fatalf("%s m=%d k=%d n=%d workers=%d: TMatMul not bitwise equal to serial", kernel, sh.m, sh.k, sh.n, w)
			}
		}
	}
}

// TestTransposeForcedWorkersBitwise runs the GEMM driver's split transposes
// at forced worker counts: each shape is the transposed operand of a MatMulT
// (b, its columns split over the product's workers) and of a TMatMul (a, one
// band of columns per worker), and both products must equal the seed kernels
// bit for bit.
func TestTransposeForcedWorkersBitwise(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{1, 5}, {7, 3}, {63, 65}, {128, 127}, {200, 77}} {
		src := randMat(int64(sh.m*sh.n), sh.m, sh.n)
		x := randMat(int64(sh.m+sh.n), 5, sh.n)
		y := randMat(int64(sh.m+sh.n+1), sh.m, 6)
		wantT, wantTM := seedMatMulT(x, src), seedTMatMul(src, y)
		for _, w := range forcedWorkers {
			gotT := poisoned(5, sh.m)
			matMulTRows(gotT, x, src, w)
			gotTM := poisoned(sh.n, 6)
			tMatMulRows(gotTM, src, y, w, true)
			if !BitwiseEqual(wantT, gotT) || !BitwiseEqual(wantTM, gotTM) {
				t.Fatalf("m=%d n=%d workers=%d: a split transpose changed a product", sh.m, sh.n, w)
			}
		}
	}
}

// TestWorkersThresholdBoundary pins the dispatch boundary: 63·256·256 FLOPs
// sits just under parallelThreshold (2^22) and must stay serial; 64·256·256
// equals it exactly and must go parallel (capped by GOMAXPROCS and rows).
func TestWorkersThresholdBoundary(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	if w := Workers(63, 63*256*256); w != 1 {
		t.Fatalf("Workers(63, just-below-threshold) = %d, want 1", w)
	}
	if w := Workers(64, 64*256*256); w != 4 {
		t.Fatalf("Workers(64, at-threshold) = %d, want 4 (GOMAXPROCS)", w)
	}
	if w := Workers(1, 1<<30); w != 1 {
		t.Fatalf("Workers(1, huge) = %d, want 1 (single row)", w)
	}
	if w := Workers(2, 1<<30); w != 2 {
		t.Fatalf("Workers(2, huge) = %d, want 2 (capped by rows)", w)
	}
}

// TestPublicOpsParallelBitwise drives the public entry points above the FLOP
// threshold with GOMAXPROCS raised, so the goroutine dispatch genuinely runs,
// and checks the result against the forced-serial kernel bit for bit.
func TestPublicOpsParallelBitwise(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const s = 170 // 170³ ≈ 4.9M FLOPs > 2^22: all matmul variants go parallel
	a := randMat(1, s, s)
	b := randMat(2, s, s)

	ref := New(s, s)
	matMulRows(ref, a, b, nil, 1, true, true)
	if got := MatMul(a, b); !BitwiseEqual(ref, got) {
		t.Fatal("parallel MatMul differs from serial")
	}

	ref = New(s, s)
	matMulTRows(ref, a, b, 1)
	if got := MatMulT(a, b); !BitwiseEqual(ref, got) {
		t.Fatal("parallel MatMulT differs from serial")
	}

	ref = New(s, s)
	tMatMulRows(ref, a, b, 1, true)
	if got := TMatMul(a, b); !BitwiseEqual(ref, got) {
		t.Fatal("parallel TMatMul differs from serial")
	}
}

// TestGEMMEntryPointsOnPoisonedPool holds MatMul, TMatMul, MatMulT and
// TMatMulAcc Float32bits-equal to the seed kernels when every buffer they
// take from the default pool — the uninitialised output and the transpose
// scratch — comes back full of NaNs: a worker that skips its rows' clear,
// or its band of a transpose, leaves NaNs in the result. Shapes sit on both
// sides of parallelThreshold, with k = 0 and with fewer rows than workers;
// GOMAXPROCS runs 1–4, pooled and unpooled.
func TestGEMMEntryPointsOnPoisonedPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer SetPooling(SetPooling(true))
	// poison retires two NaN-filled tensors of each element count into the
	// default pool.
	poison := func(sizes ...int) {
		for _, n := range sizes {
			for range 2 {
				Put(poisoned(1, n))
			}
		}
	}
	shapes := []struct{ m, k, n int }{
		{7, 5, 9},       // serial
		{5, 0, 7},       // k = 0: the outputs are all zeros
		{64, 256, 256},  // at the threshold exactly
		{65, 257, 300},  // above it, m mod 4 = 1, odd columns
		{3, 1024, 1400}, // above it with fewer rows than workers
		{170, 170, 170},
	}
	for _, sh := range shapes {
		m, k, n := sh.m, sh.k, sh.n
		a, b := randMat(int64(m+k), m, k), randMat(int64(k+n), k, n)
		aT, bT := seedTranspose(a), seedTranspose(b) // [k,m], [n,k]
		acc := randMat(int64(m*n), m, n)
		wantAcc := acc.Clone()
		seedTMatMulAcc(wantAcc, aT, b)
		want := []*Tensor{seedMatMul(a, b), seedMatMulT(a, bT), seedTMatMul(aT, b), wantAcc}
		for _, pooled := range []bool{true, false} {
			SetPooling(pooled)
			for procs := 1; procs <= 4; procs++ {
				runtime.GOMAXPROCS(procs)
				gotAcc := acc.Clone()
				var got []*Tensor
				for _, op := range []func() *Tensor{
					func() *Tensor { return MatMul(a, b) },
					func() *Tensor { return MatMulT(a, bT) },
					func() *Tensor { return TMatMul(aT, b) },
					func() *Tensor { TMatMulAcc(gotAcc, aT, b); return gotAcc },
				} {
					poison(m*n, m*k, k*n)
					got = append(got, op())
				}
				for i, name := range []string{"MatMul", "MatMulT", "TMatMul", "TMatMulAcc"} {
					if !BitwiseEqual(want[i], got[i]) {
						t.Fatalf("pooled=%v GOMAXPROCS=%d m=%d k=%d n=%d: %s differs from its seed kernel",
							pooled, procs, m, k, n, name)
					}
				}
			}
		}
	}
}

func TestParallelRowsCoversEachRowOnce(t *testing.T) {
	for _, rows := range []int{1, 2, 5, 10, 31} {
		for _, w := range []int{1, 2, 3, 4, 7, 31, 40} {
			var mu sync.Mutex
			seen := make([]int, rows)
			ParallelRows(rows, w, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("rows=%d workers=%d: row %d covered %d times", rows, w, i, c)
				}
			}
		}
	}
}

// TestParallelRowsReRaisesWorkerPanic: a panic in a worker other than the
// first is delivered to the caller's recover after every chunk has run —
// before the fix it killed the test binary from a bare goroutine.
func TestParallelRowsReRaisesWorkerPanic(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if p := recover(); p != "chunk 2 failed" {
			t.Fatalf("recovered %v, want the worker's panic value", p)
		}
		if n := ran.Load(); n != 4 {
			t.Fatalf("%d of 4 chunks finished before the panic was re-raised", n)
		}
	}()
	ParallelRows(8, 4, func(lo, hi int) {
		defer ran.Add(1)
		if lo == 4 {
			panic("chunk 2 failed")
		}
	})
	t.Fatal("ParallelRows returned normally despite a panicking worker")
}

func TestPoolGetZeroesReusedBuffer(t *testing.T) {
	p := NewPool()
	a := p.Get(3, 4)
	for i := range a.Data {
		a.Data[i] = 42
	}
	p.Put(a)
	b := p.Get(3, 4)
	if &b.Data[0] != &a.Data[0] {
		t.Fatal("Get did not reuse the retired buffer")
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused Get buffer not zeroed at %d: %v", i, v)
		}
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Hits=1 Puts=1", st)
	}
}

func TestPoolGetUninitReshapesAcrossShapes(t *testing.T) {
	p := NewPool()
	a := p.GetUninit(6, 4)
	a.Data[0] = 7
	p.Put(a)
	b := p.GetUninit(3, 8) // same element count, different shape
	if &b.Data[0] != &a.Data[0] {
		t.Fatal("GetUninit did not reuse the same-size buffer")
	}
	if b.Rows() != 3 || b.Cols() != 8 {
		t.Fatalf("reused tensor shape = %v, want [3 8]", b.Shape)
	}
	if b.Data[0] != 7 {
		t.Fatal("GetUninit must not zero the reused buffer")
	}
}

// TestPoolPutRejectsViews: a view shares a live parent's storage, so Put must
// never retire it — neither a leading RowSlice (len < cap) nor a trailing one
// or a Reshape, whose data slice reaches the end of the backing array
// (len == cap) and used to pass the guard.
func TestPoolPutRejectsViews(t *testing.T) {
	parent := New(4, 3)
	for i, view := range []*Tensor{
		parent.RowSlice(0, 2), // len 6, cap 12
		parent.RowSlice(2, 4), // len 6, cap 6: parent's rows 2–3
		parent.Reshape(2, 6),  // len 12, cap 12: all of parent
	} {
		p := NewPool()
		p.Put(view)
		if st := p.Stats(); st.Puts != 0 || st.Rejects != 1 {
			t.Fatalf("view %d: stats = %+v, want the view rejected", i, st)
		}
		got := p.GetUninit(view.Shape...)
		if &got.Data[0] == &view.Data[0] {
			t.Fatalf("view %d: rejected view was handed back out", i)
		}
	}
}

func TestPoolPutSkipsNilAndEmpty(t *testing.T) {
	p := NewPool()
	p.Put(nil, New(0, 5))
	if st := p.Stats(); st.Puts != 0 || st.Rejects != 0 {
		t.Fatalf("stats = %+v, want nil/empty silently skipped", st)
	}
}

func TestSetPoolingDisablesDefaultPool(t *testing.T) {
	prev := SetPooling(false)
	defer SetPooling(prev)
	ResetDefaultPool()

	a := Get(4, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	Put(a)
	if st := DefaultPoolStats(); st.Gets != 0 || st.Puts != 0 {
		t.Fatalf("stats = %+v, want untouched pool while disabled", st)
	}
	b := Get(4, 4)
	if &b.Data[0] == &a.Data[0] {
		t.Fatal("Get reused a buffer while pooling was disabled")
	}
}

func TestGetCloneIsIndependentCopy(t *testing.T) {
	src := randMat(5, 3, 3)
	c := GetClone(src)
	if !BitwiseEqual(src, c) {
		t.Fatal("GetClone differs from source")
	}
	c.Data[0]++
	if src.Data[0] == c.Data[0] {
		t.Fatal("GetClone aliases its source")
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				t1 := p.Get(8, 8)
				t2 := p.GetUninit(64)
				p.Put(t1, t2)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != 8*200*2 || st.Puts != 8*200*2 {
		t.Fatalf("stats = %+v, want %d gets and puts", st, 8*200*2)
	}
}

// TestSplitRowsViewsAliasParent pins the documented aliasing contract:
// SplitRows returns views (mutations are visible in the parent), SplitCols
// returns copies (mutations are not).
func TestSplitRowsViewsAliasParent(t *testing.T) {
	parent := randMat(11, 4, 3)
	rows := SplitRows(parent, 2)
	rows[1].Data[0] = 99
	if parent.At(2, 0) != 99 {
		t.Fatal("SplitRows view mutation not visible in parent")
	}

	before := parent.At(0, 1)
	cols := SplitCols(parent, 3)
	cols[1].Data[0] = -before
	if parent.At(0, 1) != before {
		t.Fatal("SplitCols must copy, but parent changed")
	}
}

func TestColBlockMatchesSplitCols(t *testing.T) {
	a := randMat(17, 6, 8)
	parts := SplitCols(a, 4)
	for i := range parts {
		if got := ColBlock(a, 4, i); !BitwiseEqual(got, parts[i]) {
			t.Fatalf("ColBlock(a, 4, %d) differs from SplitCols part", i)
		}
	}
}
