package attention

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"llama4d/internal/tensor"
)

// oddMask is a Mask the RowMask type switch does not know, forcing the
// per-element fallback path.
type oddMask struct{}

func (oddMask) Allowed(q, k int) bool { return (q+k)%2 == 0 }

// TestRowMaskMatchesAllowed checks every RowMask fast path against the
// per-element Allowed oracle, including negative query positions (ring
// attention probes rows that own no keys) and nonzero key offsets.
func TestRowMaskMatchesAllowed(t *testing.T) {
	doc := Document{DocID: DocIDsFromLengths([]int{3, 5, 2, 6}, 16)}
	masks := map[string]Mask{
		"full":     Full{},
		"causal":   Causal{},
		"document": doc,
		"custom":   oddMask{},
	}
	for name, m := range masks {
		for _, kOff := range []int{0, 3, 8, 15} {
			for q := -2; q < 16; q++ {
				if name == "document" && q < 0 {
					// Document.Allowed would index DocID[q]; RowMask's guard
					// handles the all-masked row without touching DocID.
					sk := 16 - kOff
					dst := make([]bool, sk)
					for j := range dst {
						dst[j] = true // ensure RowMask actually clears
					}
					RowMask(m, q, kOff, dst)
					for j, v := range dst {
						if v {
							t.Fatalf("%s q=%d kOff=%d: key %d allowed for negative query", name, q, kOff, j)
						}
					}
					continue
				}
				sk := 16 - kOff
				dst := make([]bool, sk)
				RowMask(m, q, kOff, dst)
				for j := 0; j < sk; j++ {
					if want := m.Allowed(q, kOff+j); dst[j] != want {
						t.Fatalf("%s q=%d kOff=%d j=%d: RowMask=%v Allowed=%v", name, q, kOff, j, dst[j], want)
					}
				}
			}
		}
	}
}

// TestForwardRowSliceBitwise proves the row-parallel Forward split never
// changes bits: with GOMAXPROCS raised and a shape above the FLOP threshold
// the full call runs parallel, while per-slice calls on a few query rows run
// serial — and every row must agree bit for bit, because rows are computed
// independently of the chunking.
func TestForwardRowSliceBitwise(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const sq, sk, d = 320, 256, 64 // 320·256·64 > 2^22: parallel dispatch
	q, k, v := randQKV(101, sq, sk, d)
	docs := Document{DocID: DocIDsFromLengths([]int{100, 77, 200}, 512)}
	for name, m := range map[string]Mask{"causal": Causal{}, "document": docs} {
		qPos := Iota(sq)
		full := Forward(q, k, v, m, qPos, 0)
		for lo := 0; lo < sq; lo += 63 { // uneven slices straddle chunk bounds
			hi := lo + 63
			if hi > sq {
				hi = sq
			}
			part := Forward(q.RowSlice(lo, hi), k, v, m, qPos[lo:hi], 0)
			if !tensor.BitwiseEqual(part.O, full.O.RowSlice(lo, hi)) {
				t.Fatalf("%s rows [%d,%d): parallel O differs from serial slice", name, lo, hi)
			}
			if !tensor.BitwiseEqual(part.P, full.P.RowSlice(lo, hi)) {
				t.Fatalf("%s rows [%d,%d): parallel P differs from serial slice", name, lo, hi)
			}
		}
	}
}

// TestBackwardRowSliceBitwise is the split-invariance property for Backward:
// a document mask above the FLOP threshold, sq and sk not multiples of the
// tile, so at three workers the key split of both dV/dK sweeps and the row
// split of the dP→dS→dQ body land mid-tile. One worker, three workers and the
// dense oracle must agree bit for bit.
func TestBackwardRowSliceBitwise(t *testing.T) {
	const sq, sk, d = 450, 470, 64
	q, k, v := randQKV(303, sq, sk, d)
	dO := tensor.RandN(rand.New(rand.NewSource(304)), 1, sq, d)
	m := Document{DocID: DocIDsFromLengths([]int{150, 97, 223}, sk)}
	qPos := Iota(sq)
	g := BuildGrid(m, qPos, 0, sk)
	if g.EmptyTiles == 0 || sweptWork(g, d) < 1<<22 {
		t.Fatalf("case has %d empty tiles and %d swept FMAs: needs empty tiles and parallel dispatch", g.EmptyTiles, sweptWork(g, d))
	}
	p := DenseForward(q, k, v, m, qPos, 0).P
	wdq, wdk, wdv := DenseBackward(q, k, v, p, dO)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		dq, dk, dv := Backward(q, k, v, p, dO, m, qPos, 0)
		if !tensor.BitwiseEqual(wdq, dq) || !tensor.BitwiseEqual(wdk, dk) || !tensor.BitwiseEqual(wdv, dv) {
			t.Fatalf("GOMAXPROCS %d: Backward differs from DenseBackward", procs)
		}
	}
}

// TestBackwardIgnoresEmptyTiles: no backward sweep reads an empty tile of P
// or an uninitialised word of its one score-plane temporary. The arena is
// primed with NaN-filled buffers of the plane's size class, so the GetUninit
// plane comes back dirty, and P's empty tiles are overwritten with NaN; the
// gradients must still equal DenseBackward on the clean P bit for bit. The
// call leaves exactly its three results checked out of the arena.
func TestBackwardIgnoresEmptyTiles(t *testing.T) {
	defer tensor.SetPooling(tensor.SetPooling(true))
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)

	const sq, sk, d = 200, 211, 8
	q, k, v := randQKV(404, sq, sk, d)
	dO := tensor.RandN(rand.New(rand.NewSource(405)), 1, sq, d)
	m := Document{DocID: DocIDsFromLengths([]int{70, 3, 50, 88}, sk)}
	qPos := Iota(sq)
	clean := DenseForward(q, k, v, m, qPos, 0).P
	wdq, wdk, wdv := DenseBackward(q, k, v, clean, dO)
	nan := float32(math.NaN())

	for _, til := range [][2]int{{pr, pc}, {7, 5}} {
		SetTiling(til[0], til[1])
		g := BuildGrid(m, qPos, 0, sk)
		if g.EmptyTiles == 0 {
			t.Fatalf("tiling %v: no empty tile to poison", til)
		}
		p := clean.Clone()
		for rt := 0; rt < g.NRows; rt++ {
			r0, r1 := g.rowBand(rt)
			for ct := 0; ct < g.NCols; ct++ {
				if g.Kind(rt, ct) != TileEmpty {
					continue
				}
				c0, c1 := g.colBand(ct)
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						p.Set(i, j, nan)
					}
				}
			}
		}
		for i := 0; i < 2; i++ {
			dirty := tensor.New(sq, sk)
			dirty.Fill(nan)
			tensor.Put(dirty)
		}
		before := tensor.DefaultPoolStats()
		dq, dk, dv := Backward(q, k, v, p, dO, m, qPos, 0)
		after := tensor.DefaultPoolStats()
		if !tensor.BitwiseEqual(wdq, dq) || !tensor.BitwiseEqual(wdk, dk) || !tensor.BitwiseEqual(wdv, dv) {
			t.Fatalf("tiling %v: Backward read an empty tile or an uninitialised word", til)
		}
		if out := (after.Gets - before.Gets) - (after.Puts - before.Puts); out != 3 {
			t.Fatalf("tiling %v: %d tensors left checked out of the arena, want the 3 gradients", til, out)
		}
		if after.Hits == before.Hits {
			t.Fatalf("tiling %v: the arena served no buffer — the dirty plane was not exercised", til)
		}
	}
}

// TestPartialForwardRowSliceBitwise is the same split-invariance property for
// the online-softmax partial kernel.
func TestPartialForwardRowSliceBitwise(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const sq, sk, d = 320, 256, 64
	q, k, v := randQKV(202, sq, sk, d)
	m := Causal{}
	qPos := Iota(sq)
	full := PartialForwardInto(nil, q, k, v, m, qPos, 0)
	for lo := 0; lo < sq; lo += 63 {
		hi := lo + 63
		if hi > sq {
			hi = sq
		}
		part := PartialForwardInto(nil, q.RowSlice(lo, hi), k, v, m, qPos[lo:hi], 0)
		if !tensor.BitwiseEqual(part.O, full.O.RowSlice(lo, hi)) {
			t.Fatalf("rows [%d,%d): parallel partial O differs from serial slice", lo, hi)
		}
		for i := lo; i < hi; i++ {
			if part.M[i-lo] != full.M[i] || part.L[i-lo] != full.L[i] {
				t.Fatalf("row %d: stats (M,L)=(%v,%v) vs serial (%v,%v)",
					i, full.M[i], full.L[i], part.M[i-lo], part.L[i-lo])
			}
		}
	}
}

// TestPartialForwardIntoReuseBitwise streams mismatched-then-matching shapes
// through one scratch Partial and checks the reuse path is indistinguishable
// from fresh allocations — including a scratch whose L is shorter than its M,
// which must be reallocated rather than sliced past its capacity.
func TestPartialForwardIntoReuseBitwise(t *testing.T) {
	m := Causal{}
	q1, k1, v1 := randQKV(303, 24, 16, 8)
	q2, k2, v2 := randQKV(304, 10, 12, 8) // different sq and sk

	want1 := PartialForwardInto(nil, q1, k1, v1, m, Iota(24), 0)
	want2 := PartialForwardInto(nil, q2, k2, v2, m, Iota(10), 0)

	scratch := PartialForwardInto(nil, q1, k1, v1, m, Iota(24), 0)
	checkPartialEqual(t, "fresh", scratch, want1)
	scratch = PartialForwardInto(scratch, q2, k2, v2, m, Iota(10), 0) // shrink
	checkPartialEqual(t, "shrunk reuse", scratch, want2)
	scratch = PartialForwardInto(scratch, q1, k1, v1, m, Iota(24), 0) // regrow
	checkPartialEqual(t, "regrown reuse", scratch, want1)
	scratch.L = make([]float32, 2)
	scratch = PartialForwardInto(scratch, q1, k1, v1, m, Iota(24), 0) // short L
	checkPartialEqual(t, "short-L reuse", scratch, want1)
	tensor.Put(scratch.O)
}

func checkPartialEqual(t *testing.T, label string, got, want *Partial) {
	t.Helper()
	if !tensor.BitwiseEqual(got.O, want.O) {
		t.Fatalf("%s: O differs", label)
	}
	for i := range want.M {
		if math.Float32bits(got.M[i]) != math.Float32bits(want.M[i]) || math.Float32bits(got.L[i]) != math.Float32bits(want.L[i]) {
			t.Fatalf("%s: stats differ at row %d", label, i)
		}
	}
}

// TestStreamedForwardParallelBitwise checks the one forward stays
// deterministic when its band loop dispatches to goroutines: the same inputs
// at serial (GOMAXPROCS=1) and parallel (GOMAXPROCS=4) settings must produce
// identical bits, through the normalising entry (Forward: O and P) and
// through the statistics-storing one (PartialForwardInto: O, M and L).
func TestStreamedForwardParallelBitwise(t *testing.T) {
	const sq, sk, d = 320, 320, 64
	q, k, v := randQKV(606, sq, sk, d)
	m := Document{DocID: DocIDsFromLengths([]int{130, 90, 100}, sk)}
	qPos := Iota(sq)

	prev := runtime.GOMAXPROCS(1)
	serialFwd := Forward(q, k, v, m, qPos, 0)
	serialPart := PartialForwardInto(nil, q, k, v, m, qPos, 0)
	runtime.GOMAXPROCS(4)
	parallelFwd := Forward(q, k, v, m, qPos, 0)
	parallelPart := PartialForwardInto(nil, q, k, v, m, qPos, 0)
	runtime.GOMAXPROCS(prev)

	if !tensor.BitwiseEqual(serialFwd.O, parallelFwd.O) || !tensor.BitwiseEqual(serialFwd.P, parallelFwd.P) {
		t.Fatal("blocked Forward differs across GOMAXPROCS")
	}
	checkPartialEqual(t, "PartialForwardInto across GOMAXPROCS", parallelPart, serialPart)
}

// seedPartialForward is a frozen copy of the seed's partial kernel: a
// single-accumulator MatMulT, per-element interface-dispatched mask calls in
// the score loop, and fresh allocations for every buffer. It is the oracle
// the optimised kernel's accumulation order is pinned against.
func seedPartialForward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Partial {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	scale := float32(1 / math.Sqrt(float64(d)))
	s := seedMatMulT(q, k)
	out := &Partial{O: tensor.New(sq, d), M: make([]float32, sq), L: make([]float32, sq)}
	for i := 0; i < sq; i++ {
		row := s.Row(i)
		maxv := float32(math.Inf(-1))
		for j := 0; j < sk; j++ {
			if m.Allowed(qPos[i], kOff+j) {
				row[j] *= scale
				if row[j] > maxv {
					maxv = row[j]
				}
			} else {
				row[j] = float32(math.Inf(-1))
			}
		}
		out.M[i] = maxv
		if math.IsInf(float64(maxv), -1) {
			continue
		}
		oi := out.O.Row(i)
		var l float32
		for j := 0; j < sk; j++ {
			if math.IsInf(float64(row[j]), -1) {
				continue
			}
			e := float32(math.Exp(float64(row[j] - maxv)))
			l += e
			vj := v.Row(j)
			for c := 0; c < d; c++ {
				oi[c] += e * vj[c]
			}
		}
		out.L[i] = l
	}
	return out
}

func seedMatMulT(a, b *tensor.Tensor) *tensor.Tensor {
	m, k := a.Rows(), a.Cols()
	n := b.Rows()
	out := tensor.New(m, n)
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

// TestPartialForwardMatchesSeedBitwise runs the flash-style partial kernel
// on one 256-key block at head dim 64 under a document mask — the shape and
// mask a CP rank sees per head. The live kernel and the seed copy visit
// allowed keys in the same order with the same scaling, so output and
// softmax statistics must agree bitwise.
func TestPartialForwardMatchesSeedBitwise(t *testing.T) {
	const sq, sk, d = 256, 256, 64
	q, k, v := randQKV(77, sq, sk, d)
	m := Document{DocID: DocIDsFromLengths([]int{100, 77, 200}, 512)}
	qPos := Iota(sq)
	want := seedPartialForward(q, k, v, m, qPos, 0)
	got := PartialForwardInto(nil, q, k, v, m, qPos, 0)
	checkPartialEqual(t, "partial vs the seed kernel", got, want)
	tensor.Put(got.O)
}
