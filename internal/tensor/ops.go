package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the FLOP count above which the matmul kernels split
// their output rows across goroutines. Row-parallel splitting preserves
// bitwise results: every output element is computed by exactly one goroutine
// in the same accumulation order as the serial kernel, so the split is
// invisible to the paper's §6.2 bitwise-match debugging methodology.
const parallelThreshold = 1 << 22

// Cache-blocking tile sizes for the serial kernels. Tiles keep the streamed
// operand slab resident in L1/L2 while the other operand is swept past it.
// Tiling never reorders the per-element accumulation: for every output
// element the reduction index still increases monotonically, which is what
// keeps tiled, untiled, and row-parallel runs bitwise identical.
const (
	tileK = 128 // reduction-dim tile of the i-k-j MatMul kernel
	tileN = 256 // column chunk of the register-tile path (a 128 KiB b panel)
	tileT = 128 // column chunk of TransposeBlock
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
	out := GetUninit(m, n)
	matMulRows(out, a, b, nil, Workers(m, m*k*n), true, true)
	return out
}

// matMulRows accumulates out += a @ b, or with overwrite sets out = a @ b,
// over row chunks, one per worker. Each worker clears its own rows of out
// (overwrite) just before it accumulates into them; with src set, a is
// scratch whose rows the worker first fills with the transpose of src's
// columns (TMatMul's a). Every product in the package ends here.
func matMulRows(out, a, b, src *Tensor, workers int, skip, overwrite bool) {
	if workers <= 1 { // skip the closure: it heap-allocates even when unused
		matMulBand(out, a, b, src, 0, a.Rows(), skip, overwrite)
		return
	}
	ParallelRows(a.Rows(), workers, func(lo, hi int) {
		matMulBand(out, a, b, src, lo, hi, skip, overwrite)
	})
}

// matMulBand is matMulRows on output rows [lo, hi).
func matMulBand(out, a, b, src *Tensor, lo, hi int, skip, overwrite bool) {
	k, n := a.Cols(), b.Cols()
	if src != nil {
		TransposeBlock(a.Data[lo*k:], k, src.Data[lo:], a.Rows(), k, hi-lo)
	}
	o := out.Data[lo*n : hi*n]
	if overwrite {
		clear(o)
	}
	AccumBlock(o, n, a.Data[lo*k:], k, b.Data, n, hi-lo, k, n, skip)
}

// HasAVX512 reports whether the register tile runs: the CPU has AVX-512F and
// the OS saves the opmask and ZMM state (false in the pure-Go build).
func HasAVX512() bool { return useAVX512 }

// AccumBlock accumulates out[i][j] += Σ_p a[i][p]·b[p][j] (i < m, j < n, p < k
// increasing), row i of out at out[i·ldo], of a at a[i·lda], row p of b at
// b[p·ldb]. With skip a term is dropped exactly when its a value is zero
// (MatMul, TMatMul); without, every term is multiplied (MatMulT). It is the
// kernel under every product in the package and under the blocked attention
// engine's sweeps, one call per non-empty mask tile. It panics unless
// ldo ≥ n, lda ≥ k, ldb ≥ n and each slice holds its (rows−1)·ld + cols
// extent, before it writes anything. The i-k-j loop is blocked over k so a
// tileK-row slab of b stays cache-resident. On an AVX-512 host every whole
// 4-row group runs on the register tile, tileN columns of the slab at a time,
// one rule per group and slab: per window of 64 groups one vector scan finds
// the groups whose coefficient block holds a zero (skip only). A zero-free
// group runs the plain tiles — 4×32 blocks, then one 4×16 block when
// n mod 32 ≥ 16 — and the masked 4×16 tile over the last n mod 16 columns; a
// group holding a zero runs the 4×32 blocks with the zero skip, then the
// masked 4×16 tile with it over the last n mod 32 columns. The m mod 4
// leftover rows, and every row on a host without AVX-512 or in the purego
// build, are one accumRows call each. Each path adds the terms in
// increasing-p order as separately rounded +=, so the result is bitwise
// identical to the one-p-at-a-time scalar kernel.
func AccumBlock(out []float32, ldo int, a []float32, lda int, b []float32, ldb, m, k, n int, skip bool) {
	if m <= 0 || k <= 0 || n <= 0 {
		return
	}
	if ldo < n || lda < k || ldb < n || len(out) < (m-1)*ldo+n || len(a) < (m-1)*lda+k || len(b) < (k-1)*ldb+n {
		panic(fmt.Sprintf("tensor: AccumBlock %dx%dx%d with strides out %d, a %d, b %d over %d, %d and %d floats",
			m, k, n, ldo, lda, ldb, len(out), len(a), len(b)))
	}
	// The tiles trust these extents.
	out, a, b = out[:(m-1)*ldo+n], a[:(m-1)*lda+k], b[:(k-1)*ldb+n]
	mt := 0 // rows the tiles cover
	if useAVX512 {
		mt = m &^ 3
	}
	for pt := 0; pt < k; pt += tileK {
		kc, bs := min(tileK, k-pt), b[pt*ldb:]
		for i0 := 0; i0 < mt; i0 += 4 * 64 {
			ng := min(64, (mt-i0)/4)
			var zeros uint64 // bit g: the group at row i0+4g holds a zero coefficient
			if skip {
				zeros = zeroGroupsAVX512(&a[i0*lda+pt], lda, kc, ng)
			}
			for jc := 0; jc < n; jc += tileN {
				nc := min(tileN, n-jc)
				n16, n32 := nc&^15, nc&^31
				for g := 0; g < ng; g++ {
					o, ai := out[(i0+4*g)*ldo+jc:], &a[(i0+4*g)*lda+pt]
					z := zeros>>g&1 != 0
					switch {
					case n32 > 0 && z:
						tile4x32MaskAVX512(&o[0], ldo, ai, lda, &bs[jc], ldb, kc, n32)
					case n32 > 0:
						tile4x32AVX512(&o[0], ldo, ai, lda, &bs[jc], ldb, kc, n32)
					}
					j := n32 // columns done
					if !z && n32 < n16 {
						tile4x16AVX512(&o[n32], ldo, ai, lda, &bs[jc+n32], ldb, kc)
						j = n16
					}
					if j < nc {
						tile4x16MaskAVX512(&o[j], ldo, ai, lda, &bs[jc+j], ldb, kc, nc-j, z)
					}
				}
			}
		}
		for i := mt; i < m; i++ {
			accumRows(out[i*ldo:i*ldo+n], a[i*lda+pt:i*lda+pt+kc], bs, ldb, skip)
		}
	}
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

// matMulTRows overwrites out = a @ bᵀ: b is transposed once into a pooled
// buffer, its columns split over the product's own workers (pure data
// movement), and the product runs the MatMul kernel, so the vector lanes are
// distinct output columns — a dot product vectorised across k would sum
// lane-wise partials in a different order. Each element is the dot kernel's
// single running sum from +0 over p in increasing order; skipping is off
// because that sum multiplies every term: a zero in a must still meet a NaN
// or Inf in b.
func matMulTRows(out, a, b *Tensor, workers int) {
	n, k := b.Rows(), b.Cols()
	bT := GetUninit(k, n)
	if workers <= 1 {
		TransposeBlock(bT.Data, n, b.Data, k, n, k)
	} else {
		ParallelRows(k, workers, func(lo, hi int) {
			TransposeBlock(bT.Data[lo*n:], n, b.Data[lo:], k, n, hi-lo)
		})
	}
	matMulRows(out, a, bT, nil, workers, false, true)
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
	out := GetUninit(m, n)
	tMatMulRows(out, a, b, Workers(m, m*k*n), true)
	return out
}

// TMatMulAcc accumulates aᵀ @ b into out, used for gradient accumulation
// across micro-batches (FP32 accumulation per §6.2).
func TMatMulAcc(out, a, b *Tensor) {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: TMatMulAcc %vᵀ @ %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	countMatMul(m, k, n)
	tMatMulRows(out, a, b, Workers(m, m*k*n), false)
}

// tMatMulRows accumulates out += aᵀ @ b, or with overwrite sets out = aᵀ @ b:
// each worker transposes the band of a's columns that are its output rows
// (pure data movement, into a pooled buffer) and runs the MatMul kernel on
// it. Every output element (i,j) sums a[p,i]·b[p,j] over p in increasing
// order and skips a term exactly when a[p,i] is zero, so the result — under
// any row split — is bitwise identical to the p-outer loop over the
// untransposed a.
func tMatMulRows(out, a, b *Tensor, workers int, overwrite bool) {
	aT := GetUninit(a.Cols(), a.Rows())
	matMulRows(out, aT, b, a, workers, true, overwrite)
	Put(aT)
}

// TransposeBlock writes dst[j·ldd+i] = src[i·lds+j] for i < m and j < n
// (strides in elements; lds ≥ n, ldd ≥ m): the one transpose kernel, under
// the GEMM driver (MatMulT's b, split over its workers; TMatMul's and
// TMatMulAcc's a, one band per worker) and the blocked attention engine's key
// panels and tile scratch. It walks the columns in
// chunks of tileT; per chunk, each 16-row panel of the part whose row count
// is a multiple of 16 and column count a multiple of 8 runs the in-register
// kernel (transpose_amd64.s) when the CPU has AVX2, and a scalar loop takes
// the remaining rows and columns — and everything in the pure-Go build.
// A permutation of 32-bit words: bitwise by construction, NaN payloads
// included.
func TransposeBlock(dst []float32, ldd int, src []float32, lds int, m, n int) {
	if m <= 0 || n <= 0 {
		return
	}
	if lds < n || ldd < m {
		panic(fmt.Sprintf("tensor: TransposeBlock %dx%d with strides src %d, dst %d", m, n, lds, ldd))
	}
	src, dst = src[:(m-1)*lds+n], dst[:(n-1)*ldd+m] // the vector kernel trusts these extents
	m16, n8 := 0, 0
	if useAVX2 {
		m16, n8 = m&^15, n&^7
	}
	for jt := 0; jt < n; jt += tileT {
		j1 := min(jt+tileT, n)
		v1 := max(jt, min(j1, n8)) // the chunk's vector columns are [jt, v1)
		for i := 0; i < m16 && jt < v1; i += 16 {
			transpose16AVX(&dst[jt*ldd+i], ldd, &src[i*lds+jt], lds, v1-jt)
		}
		for j := jt; j < j1; j++ {
			r0 := 0 // rows the vector panels did not cover in this column
			if j < v1 {
				r0 = m16
			}
			dj := dst[j*ldd:]
			for r := r0; r < m; r++ {
				dj[r] = src[r*lds+j]
			}
		}
	}
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
