package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the FLOP count above which the matmul kernels split
// their output rows across goroutines. Row-parallel splitting preserves
// bitwise results: every output element is computed by exactly one goroutine
// in the same accumulation order as the serial kernel, so the split is
// invisible to the paper's §6.2 bitwise-match debugging methodology.
const parallelThreshold = 1 << 22

// copyThreshold is the element count above which memory-bound kernels
// (Transpose) split their output rows across goroutines.
const copyThreshold = 1 << 20

// Cache-blocking tile sizes for the serial kernels. Tiles keep the streamed
// operand slab resident in L1/L2 while the other operand is swept past it.
// Tiling never reorders the per-element accumulation: for every output
// element the reduction index still increases monotonically, which is what
// keeps tiled, untiled, and row-parallel runs bitwise identical.
const (
	tileK = 128 // reduction-dim tile of the i-k-j MatMul kernel
	tileN = 256 // column chunk of the register-tile path (a 128 KiB b panel)
	tileT = 32  // square tile edge of the blocked Transpose kernel
)

// Workers returns the number of row-parallel workers a kernel producing
// `rows` output rows at `work` scalar operations should use: 1 below the
// FLOP threshold, else up to GOMAXPROCS capped by the row count.
func Workers(rows, work int) int {
	if rows <= 1 || work < parallelThreshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > rows {
		w = rows
	}
	return w
}

// ParallelRows partitions [0, rows) into `workers` contiguous chunks and
// runs body once per chunk, on separate goroutines when workers > 1. Chunk
// boundaries carry no numeric meaning: callers must ensure body computes
// each row independently of the split (row-parallel kernels do), which makes
// the result bitwise independent of the worker count. A panic in body is
// caught on its worker and re-raised here, on the calling goroutine, once
// every chunk has finished (the first one caught, if several chunks panic):
// the caller's recover — a rank's, in comm.World.RunSPMD — sees it, where a
// panic on a bare goroutine would kill the process.
func ParallelRows(rows, workers int, body func(lo, hi int)) {
	if workers <= 1 || rows <= 1 {
		body(0, rows)
		return
	}
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var (
		wg     sync.WaitGroup
		once   sync.Once
		caught any
	)
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { caught = p })
				}
			}()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
}

// MatMul returns a @ b for 2-D tensors a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul %v @ %v", a.Shape, b.Shape))
	}
	countMatMul(m, k, n)
	out := Get(m, n)
	matMulRows(out, a, b, Workers(m, m*k*n), true)
	return out
}

// matMulRows accumulates out += a @ b (callers zero out for the overwrite
// semantics), running the serial kernel over row chunks. Every product in the
// package ends here.
func matMulRows(out, a, b *Tensor, workers int, skip bool) {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	if workers <= 1 { // skip the closure: it heap-allocates even when unused
		AccumBlock(out.Data, n, a.Data, k, b.Data, n, m, k, n, skip)
		return
	}
	ParallelRows(m, workers, func(lo, hi int) {
		AccumBlock(out.Data[lo*n:], n, a.Data[lo*k:], k, b.Data, n, hi-lo, k, n, skip)
	})
}

// AccumBlock accumulates out[i][j] += Σ_p a[i][p]·b[p][j] (i < m, j < n, p < k
// increasing), row i of out at out[i·ldo], of a at a[i·lda], row p of b at
// b[p·ldb]. With skip a term is dropped exactly when its a value is zero
// (MatMul, TMatMul); without, every term is multiplied (MatMulT). It is the
// kernel under every product in the package and under the blocked attention
// engine's sweeps, one call per non-empty mask tile. The i-k-j loop is
// blocked over k so a tileK-row slab of b stays cache-resident. Per slab and
// per window of 64 4-row groups, each group's coefficient block is tested
// once; a tileable group runs the register tiles — 4×32 blocks, then one
// 4×16 block when n mod 32 ≥ 16 — tileN columns of the slab at a time, and a
// scalar loop per (row, p) over the rest; every other row is one accumRows
// call. Each path adds the terms in increasing-p order as separately rounded
// +=, so the result is bitwise identical to the one-p-at-a-time scalar kernel.
func AccumBlock(out []float32, ldo int, a []float32, lda int, b []float32, ldb, m, k, n int, skip bool) {
	nt := 0 // columns the tiles cover
	if useAVX512 && m >= 4 {
		nt = n &^ 15
	}
	for pt := 0; pt < k; pt += tileK {
		kc, bs := min(tileK, k-pt), b[pt*ldb:]
		for i0 := 0; i0 < m; i0 += 4 * 64 {
			i1 := min(i0+4*64, m)
			var tiled uint64 // bit g: the group at row i0+4g runs on the tile
			for g := 0; nt > 0 && i0+4*g+4 <= i1; g++ {
				if tileable(a[(i0+4*g)*lda+pt:], lda, kc, skip) {
					tiled |= 1 << g
				}
			}
			for jc := 0; jc < nt && tiled != 0; jc += tileN {
				nc := min(tileN, nt-jc)
				n32 := nc &^ 31
				for g := 0; tiled>>g != 0; g++ {
					if i := i0 + 4*g; tiled>>g&1 != 0 {
						o, ai := out[i*ldo+jc:], &a[i*lda+pt]
						if n32 > 0 {
							tile4x32AVX512(&o[0], ldo, ai, lda, &bs[jc], ldb, kc, n32)
						}
						if n32 < nc {
							tile4x16AVX512(&o[n32], ldo, ai, lda, &bs[jc+n32], ldb, kc)
						}
					}
				}
			}
			for i := i0; i < i1; i++ {
				ai, oi := a[i*lda+pt:i*lda+pt+kc], out[i*ldo:i*ldo+n]
				if tiled>>((i-i0)/4)&1 == 0 {
					accumRows(oi, ai, bs, ldb, skip)
					continue
				}
				for p := 0; nt < n && p < kc; p++ {
					av, bp := ai[p], bs[p*ldb:p*ldb+n]
					for j := nt; j < n; j++ {
						oi[j] += av * bp[j]
					}
				}
			}
		}
	}
}

// tileable reports whether the 4×kc coefficient block whose row r starts at
// a[r·lda] may run on the register tile, which multiplies every term: always
// with skip off, else only if no coefficient is zero.
func tileable(a []float32, lda, kc int, skip bool) bool {
	for r := 0; skip && r < 4; r++ {
		for _, v := range a[r*lda : r*lda+kc] {
			if v == 0 {
				return false
			}
		}
	}
	return true
}

// MatMulT returns a @ bᵀ for a [m,k] and b [n,k] — the attention-score path
// (S = Q @ Kᵀ).
func MatMulT(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT %v @ %vᵀ", a.Shape, b.Shape))
	}
	countMatMul(m, k, n)
	out := GetUninit(m, n)
	matMulTRows(out, a, b, Workers(m, m*k*n))
	return out
}

// matMulTRows overwrites out = a @ bᵀ: b is transposed once (pure data
// movement, pooled buffer) and the product runs the MatMul kernel from a
// zeroed out, so the vector lanes are distinct output columns — a dot product
// vectorised across k would sum lane-wise partials in a different order.
// Each element is the dot kernel's single running sum from +0 over p in
// increasing order; skipping is off because that sum multiplies every term: a
// zero in a must still meet a NaN or Inf in b.
func matMulTRows(out, a, b *Tensor, workers int) {
	bT := GetUninit(b.Cols(), b.Rows())
	TransposeInto(bT, b)
	out.Zero()
	matMulRows(out, a, bT, workers, false)
	Put(bT)
}

// TMatMul returns aᵀ @ b for a [k,m] and b [k,n] — the shape needed for
// weight gradients (dW = xᵀ @ dy).
func TMatMul(a, b *Tensor) *Tensor {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul %vᵀ @ %v", a.Shape, b.Shape))
	}
	countMatMul(m, k, n)
	out := Get(m, n)
	tMatMulRows(out, a, b, Workers(m, m*k*n))
	return out
}

// TMatMulAcc accumulates aᵀ @ b into out, used for gradient accumulation
// across micro-batches (FP32 accumulation per §6.2).
func TMatMulAcc(out, a, b *Tensor) {
	checkTMatMul(out, a, b, "TMatMulAcc")
	countMatMul(a.Cols(), a.Rows(), b.Cols())
	tMatMulRows(out, a, b, Workers(a.Cols(), a.Rows()*a.Cols()*b.Cols()))
}

func checkTMatMul(out, a, b *Tensor, op string) {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: %s %vᵀ @ %v -> %v", op, a.Shape, b.Shape, out.Shape))
	}
}

// tMatMulRows accumulates out += aᵀ @ b (callers zero out for the overwrite
// semantics): a is transposed once (pure data movement, pooled buffer) and
// the product runs the MatMul kernel. Every output element (i,j) sums
// a[p,i]·b[p,j] over p in increasing order and skips a term exactly when
// a[p,i] is zero, so the result — under any row split — is bitwise identical
// to the p-outer loop over the untransposed a.
func tMatMulRows(out, a, b *Tensor, workers int) {
	aT := GetUninit(a.Cols(), a.Rows())
	TransposeInto(aT, a)
	matMulRows(out, aT, b, workers, true)
	Put(aT)
}

// TransposeInto computes dst = aᵀ, overwriting dst ([cols(a), rows(a)]).
func TransposeInto(dst, a *Tensor) {
	if dst.Rows() != a.Cols() || dst.Cols() != a.Rows() {
		panic(fmt.Sprintf("tensor: TransposeInto %v -> %v", a.Shape, dst.Shape))
	}
	transposeRows(dst, a, runtime.GOMAXPROCS(0), a.Len())
}

// transposeRows splits the output rows (input columns) across goroutines
// when the element count warrants it; each chunk runs the blocked serial
// kernel. A pure permutation: trivially bitwise under any split.
func transposeRows(out, a *Tensor, workers, elems int) {
	m, n := a.Rows(), a.Cols()
	if workers > 1 && elems < copyThreshold {
		workers = 1
	}
	if workers <= 1 {
		transposeBlock(out.Data, a.Data, m, n, 0, n)
		return
	}
	ParallelRows(n, workers, func(lo, hi int) {
		transposeBlock(out.Data, a.Data, m, n, lo, hi)
	})
}

// transposeBlock writes out[j,i] = a[i,j] for j in [lo,hi), in tileT×tileT
// blocks so both the strided reads and the sequential writes hit cache lines
// that are still resident.
func transposeBlock(out, a []float32, m, n, lo, hi int) {
	for jt := lo; jt < hi; jt += tileT {
		jHi := jt + tileT
		if jHi > hi {
			jHi = hi
		}
		for it := 0; it < m; it += tileT {
			iHi := it + tileT
			if iHi > m {
				iHi = m
			}
			for j := jt; j < jHi; j++ {
				oj := out[j*m : (j+1)*m]
				for i := it; i < iHi; i++ {
					oj[i] = a[i*n+j]
				}
			}
		}
	}
}

// SoftmaxRow computes a numerically stable softmax of xs in place.
func SoftmaxRow(xs []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range xs {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(float64(maxv), -1) {
		// Entire row masked out: define the result as uniform zeros so a
		// fully-padded query attends to nothing (used by document masks).
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

// SoftmaxRows applies SoftmaxRow to every row of a 2-D tensor in place.
func SoftmaxRows(a *Tensor) *Tensor {
	m := a.Rows()
	for i := 0; i < m; i++ {
		SoftmaxRow(a.Row(i))
	}
	return a
}

// ConcatRows stacks tensors with identical column counts along dimension 0.
// The result is a fresh tensor; inputs are copied, never aliased.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		return New(0)
	}
	cols := parts[0].Cols()
	rows := 0
	for _, p := range parts {
		if p.Cols() != cols {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", p.Cols(), cols))
		}
		rows += p.Rows()
	}
	out := GetUninit(rows, cols)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out
}

// ConcatCols concatenates 2-D tensors with identical row counts along
// dimension 1 — the reassembly step after column-parallel linear layers.
// The result is a fresh tensor; inputs are copied, never aliased.
func ConcatCols(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		return New(0)
	}
	rows := parts[0].Rows()
	cols := 0
	for _, p := range parts {
		if p.Rows() != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", p.Rows(), rows))
		}
		cols += p.Cols()
	}
	out := GetUninit(rows, cols)
	ConcatColsInto(out, parts...)
	return out
}

// ConcatColsInto assembles parts column-wise into dst ([rows, Σcols]),
// overwriting it. The destination-passing variant of ConcatCols.
func ConcatColsInto(dst *Tensor, parts ...*Tensor) {
	rows, cols := dst.Rows(), dst.Cols()
	off := 0
	for _, p := range parts {
		pc := p.Cols()
		if p.Rows() != rows {
			panic(fmt.Sprintf("tensor: ConcatColsInto row mismatch %d vs %d", p.Rows(), rows))
		}
		for i := 0; i < rows; i++ {
			copy(dst.Data[i*cols+off:i*cols+off+pc], p.Row(i))
		}
		off += pc
	}
	if off != cols {
		panic(fmt.Sprintf("tensor: ConcatColsInto wants %d columns, parts have %d", cols, off))
	}
}

// SplitCols splits a 2-D tensor into n equal column blocks. Test surface:
// tp's TestColRowPairMatchesSequentialPair and the tensor tests that hold
// ColBlock and ConcatCols to it.
//
// Aliasing contract: the blocks are COPIES — mutating a block never affects
// a, unlike SplitRows whose results alias a. Callers needing a single block
// should use ColBlock, which copies only that block.
func SplitCols(a *Tensor, n int) []*Tensor {
	cols := a.Cols()
	if cols%n != 0 {
		panic(fmt.Sprintf("tensor: SplitCols %d %% %d != 0", cols, n))
	}
	out := make([]*Tensor, n)
	for s := 0; s < n; s++ {
		out[s] = ColBlock(a, n, s)
	}
	return out
}

// ColBlock returns a copy of column block i of a split into n equal blocks —
// what a TP rank extracts from a full tensor without materialising the other
// n−1 blocks (the copy-heavy path SplitCols forces).
func ColBlock(a *Tensor, n, i int) *Tensor {
	rows, cols := a.Rows(), a.Cols()
	if cols%n != 0 {
		panic(fmt.Sprintf("tensor: ColBlock %d %% %d != 0", cols, n))
	}
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tensor: ColBlock %d of %d", i, n))
	}
	w := cols / n
	t := GetUninit(rows, w)
	for r := 0; r < rows; r++ {
		copy(t.Row(r), a.Data[r*cols+i*w:r*cols+(i+1)*w])
	}
	return t
}

// SplitRows splits a 2-D tensor into n equal row blocks.
//
// Aliasing contract: the blocks are VIEWS sharing a's storage — mutating a
// block is visible in a and vice versa (the zero-copy row sharding the
// collectives rely on). This is the opposite of SplitCols, which must copy
// because column blocks are not contiguous.
func SplitRows(a *Tensor, n int) []*Tensor {
	rows := a.Rows()
	if rows%n != 0 {
		panic(fmt.Sprintf("tensor: SplitRows %d %% %d != 0", rows, n))
	}
	h := rows / n
	out := make([]*Tensor, n)
	for s := 0; s < n; s++ {
		out[s] = a.RowSlice(s*h, (s+1)*h)
	}
	return out
}
