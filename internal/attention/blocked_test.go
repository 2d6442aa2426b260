package attention

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"llama4d/internal/tensor"
)

// checkBlockedVsDense asserts the blocked engine's three kernels (Forward,
// Backward, PartialForwardInto) are bitwise identical to the dense reference
// on one (mask, qPos, kOff) configuration — the §6.2 determinism contract the
// tile-skipping optimisation must preserve.
func checkBlockedVsDense(t *testing.T, label string, seed int64, sq, sk, d int, m Mask, qPos []int, kOff int) {
	t.Helper()
	q, k, v := randQKV(seed, sq, sk, d)

	dense := DenseForward(q, k, v, m, qPos, kOff)
	blocked := Forward(q, k, v, m, qPos, kOff)
	if !tensor.BitwiseEqual(dense.O, blocked.O) {
		t.Fatalf("%s: blocked forward O differs from dense", label)
	}
	if !tensor.BitwiseEqual(dense.P, blocked.P) {
		t.Fatalf("%s: blocked forward P differs from dense", label)
	}

	dO := tensor.RandN(rand.New(rand.NewSource(seed+1)), 1, sq, d)
	wdq, wdk, wdv := DenseBackward(q, k, v, dense.P, dO)
	gdq, gdk, gdv := Backward(q, k, v, blocked.P, dO, m, qPos, kOff)
	if !tensor.BitwiseEqual(wdq, gdq) {
		t.Fatalf("%s: blocked dQ differs from dense", label)
	}
	if !tensor.BitwiseEqual(wdk, gdk) {
		t.Fatalf("%s: blocked dK differs from dense", label)
	}
	if !tensor.BitwiseEqual(wdv, gdv) {
		t.Fatalf("%s: blocked dV differs from dense", label)
	}

	want := DensePartialForwardInto(nil, q, k, v, m, qPos, kOff)
	got := PartialForwardInto(nil, q, k, v, m, qPos, kOff)
	checkPartialEqual(t, label+": blocked partial vs dense", got, want)
	tensor.Put(want.O, got.O)
}

// gridTilings are the tile geometries of the property grid: small, square,
// rectangular and the default.
var gridTilings = [][2]int{{4, 4}, {8, 8}, {16, 8}, {64, 64}}

// TestBlockedMatchesDenseGrid is the bitwise property grid of the blocked
// engine: every mask family (Full, Causal, Document, and an unknown mask
// forced onto the conservative all-partial path) × sequence lengths
// straddling the tile size (1, block−1, block, block+1, odd > 2 blocks) ×
// key offsets {0, +3, −3} × four tilings including rectangular tiles. Each
// point checks forward, backward, and the ring-attention partial kernel
// bitwise against the dense references.
func TestBlockedMatchesDenseGrid(t *testing.T) {
	const d = 8
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)

	seed := int64(9000)
	for _, til := range gridTilings {
		SetTiling(til[0], til[1])
		block := til[0]
		keylessInLiveBand := 0
		seen := map[int]bool{}
		for _, sq := range []int{1, block - 1, block, block + 1, 2*block + 3} {
			if sq < 1 || seen[sq] {
				continue
			}
			seen[sq] = true
			sk := sq + 5 // rectangular, straddles column-tile bounds too
			for _, kOff := range []int{0, 3, -3} {
				masks := map[string]Mask{"full": Full{}, "causal": Causal{}, "odd": oddMask{}}
				if kOff >= 0 {
					// Document ids must cover every global position probed;
					// negative key offsets never occur under document masks
					// (keys are real sequence positions).
					n := kOff + sk
					if sq > n {
						n = sq
					}
					lengths := []int{n/3 + 1, 0, n/4 + 1, 2} // includes a zero-length doc
					masks["document"] = Document{DocID: DocIDsFromLengths(lengths, n)}
				}
				for name, m := range masks {
					seed++
					label := labelFor(name, til, sq, kOff)
					checkBlockedVsDense(t, label, seed, sq, sk, d, m, Iota(sq), kOff)
					if name == "causal" || name == "document" {
						// Ring-attention probes: rows whose global position is
						// negative (they own no keys in this block yet).
						qNeg := make([]int, sq)
						for i := range qNeg {
							qNeg[i] = i - 2
						}
						checkBlockedVsDense(t, label+"/qneg", seed, sq, sk, d, m, qNeg, kOff)
						// Every odd row sits before the first key, so it has
						// no allowed key at all, while the even rows of its
						// band keep the band's tiles non-empty: the shared
						// softmax's early exit, which must leave such a row
						// zero (and M = -Inf, L = 0 in the partial kernel).
						qMix := Iota(sq)
						for i := 1; i < sq; i += 2 {
							qMix[i] = kOff - 1 - i
						}
						checkBlockedVsDense(t, label+"/qmix", seed, sq, sk, d, m, qMix, kOff)
						keylessInLiveBand += keylessRowsInLiveBands(m, qMix, kOff, sk)
					}
				}
			}
		}
		if keylessInLiveBand == 0 {
			t.Fatalf("tiling %v: the qmix family never put a keyless row in a band with non-empty tiles", til)
		}
	}
}

// keylessRowsInLiveBands counts the query rows that have no allowed key while
// their row band has at least one non-empty tile.
func keylessRowsInLiveBands(m Mask, qPos []int, kOff, sk int) int {
	g := BuildGrid(m, qPos, kOff, sk)
	allowed := make([]bool, sk)
	n := 0
	for i, q := range qPos {
		live := false
		for ct := 0; ct < g.NCols; ct++ {
			live = live || g.Kind(i/g.TileRows, ct) != TileEmpty
		}
		RowMask(m, q, kOff, allowed)
		keyless := true
		for _, a := range allowed {
			keyless = keyless && !a
		}
		if live && keyless {
			n++
		}
	}
	return n
}

// docLengths draws a deterministic packed-document length distribution with
// the given mean (uniform on 1..2·avg−1), covering at least seq tokens.
func docLengths(avg, seq int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for total := 0; total < seq; {
		n := 1 + rng.Intn(2*avg-1)
		out = append(out, n)
		total += n
	}
	return out
}

// TestBlockedMatchesDensePerDistribution is the training-shape complement of
// the grid above: one 1024-token head at d=64 under the default 64×64 tiling
// — large enough that the row-parallel split and the 4-wide unrolled inner
// loops run — for document masks of mean length 64 to 512 plus plain causal;
// then the two head shapes of model's TestMultiHeadSplitBitwise, whose
// serial head loop takes Forward and Backward as its reference: d=8 over 40
// rows on its 13/20/7-token documents, and d=16 over 384 causal rows, the
// shape whose heads split over workers there. Forward, backward and the
// partial kernel must match the dense oracles bitwise on every input.
func TestBlockedMatchesDensePerDistribution(t *testing.T) {
	const seq, d = 1024, 64
	for di, avgLen := range []int{64, 128, 256, 512, 0} { // 0 = plain causal
		var m Mask = Causal{}
		if avgLen > 0 {
			m = Document{DocID: DocIDsFromLengths(docLengths(avgLen, seq, int64(1000+di)), seq)}
		}
		checkBlockedVsDense(t, fmt.Sprintf("docs%d", avgLen), int64(2000+di), seq, seq, d, m, Iota(seq), 0)
	}
	checkBlockedVsDense(t, "model-small", 2100, 40, 40, 8, Document{DocID: DocIDsFromLengths([]int{13, 20, 7}, 40)}, Iota(40), 0)
	checkBlockedVsDense(t, "model-large", 2101, 384, 384, 16, Causal{}, Iota(384), 0)
}

// DenseForward is the dense reference kernel: the full score matrix is
// materialised and swept with per-row masking regardless of mask structure.
// It is the oracle the blocked engine is property-tested against.
func DenseForward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	checkShapes(q, k, v, qPos)
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	scale := float32(1 / math.Sqrt(float64(d)))
	s := tensor.MatMulT(q, k)
	if workers := tensor.Workers(sq, sq*sk*d); workers <= 1 {
		maskedSoftmaxRows(s, m, qPos, kOff, scale, 0, sq)
	} else {
		tensor.ParallelRows(sq, workers, func(lo, hi int) {
			maskedSoftmaxRows(s, m, qPos, kOff, scale, lo, hi)
		})
	}
	return &Output{O: tensor.MatMul(s, v), P: s}
}

// maskedSoftmaxRows scales and softmaxes score rows [lo, hi) in place,
// sending disallowed positions to -Inf. Each worker hoists the mask into
// one reusable per-row []bool instead of an Allowed call per element.
func maskedSoftmaxRows(s *tensor.Tensor, m Mask, qPos []int, kOff int, scale float32, lo, hi int) {
	sk := s.Cols()
	allowed := make([]bool, sk)
	neg := float32(math.Inf(-1))
	for i := lo; i < hi; i++ {
		RowMask(m, qPos[i], kOff, allowed)
		row := s.Row(i)
		for j := 0; j < sk; j++ {
			if allowed[j] {
				row[j] *= scale
			} else {
				row[j] = neg
			}
		}
		tensor.SoftmaxRow(row)
	}
}

// DenseBackward is the dense reference backward pass: every gradient product
// sweeps the full score plane, relying only on the exact zeros of masked
// probabilities. The blocked backward's oracle.
func DenseBackward(q, k, v, p, dO *tensor.Tensor) (dQ, dK, dV *tensor.Tensor) {
	d := q.Cols()
	scale := float32(1 / math.Sqrt(float64(d)))

	dV = tensor.TMatMul(p, dO)  // [sk, d]
	dP := tensor.MatMulT(dO, v) // [sq, sk]
	// dS = P ∘ (dP − rowsum(dP ∘ P))
	sq, sk := p.Rows(), p.Cols()
	dS := tensor.GetUninit(sq, sk)
	if workers := tensor.Workers(sq, 2*sq*sk); workers <= 1 {
		softmaxBackwardRows(dS, p, dP, 0, sq)
	} else {
		tensor.ParallelRows(sq, workers, func(lo, hi int) {
			softmaxBackwardRows(dS, p, dP, lo, hi)
		})
	}
	tensor.Put(dP)
	dQ = tensor.MatMul(dS, k).Scale(scale)
	dK = tensor.TMatMul(dS, q).Scale(scale)
	tensor.Put(dS)
	return dQ, dK, dV
}

// softmaxBackwardRows writes dS = P ∘ (dP − rowsum(dP ∘ P)) for rows
// [lo, hi). Row-independent, so any ParallelRows split is bitwise invisible.
func softmaxBackwardRows(dS, p, dP *tensor.Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		pi, dpi, dsi := p.Row(i), dP.Row(i), dS.Row(i)
		var dot float32
		for j := range pi {
			dot += float32(pi[j] * dpi[j]) // never fused into an FMA
		}
		for j := range pi {
			dsi[j] = pi[j] * (dpi[j] - dot)
		}
	}
}

// DensePartialForwardInto is the dense reference partial kernel: the oracle
// PartialForwardInto is held to.
func DensePartialForwardInto(out *Partial, q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Partial {
	checkShapes(q, k, v, qPos)
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	scale := float32(1 / math.Sqrt(float64(d)))
	s := tensor.MatMulT(q, k)
	out = preparePartial(out, sq, d)
	if workers := tensor.Workers(sq, sq*sk*d); workers <= 1 {
		partialSweepRows(out, s, v, m, qPos, kOff, scale, 0, sq)
	} else {
		tensor.ParallelRows(sq, workers, func(lo, hi int) {
			partialSweepRows(out, s, v, m, qPos, kOff, scale, lo, hi)
		})
	}
	tensor.Put(s)
	return out
}

// partialSweepRows runs the online-softmax accumulation for query rows
// [lo, hi): mask, scale, row max, exp-weights into out.O with per-row M/L
// statistics. Rows are independent, so worker splits never change bits.
func partialSweepRows(out *Partial, s, v *tensor.Tensor, m Mask, qPos []int, kOff int, scale float32, lo, hi int) {
	sk, d := s.Cols(), v.Cols()
	allowed := make([]bool, sk)
	negInf := float32(math.Inf(-1))
	for i := lo; i < hi; i++ {
		RowMask(m, qPos[i], kOff, allowed)
		row := s.Row(i)
		maxv := negInf
		for j := 0; j < sk; j++ {
			if allowed[j] {
				row[j] *= scale
				if row[j] > maxv {
					maxv = row[j]
				}
			}
		}
		out.M[i] = maxv
		out.L[i] = 0
		if math.IsInf(float64(maxv), -1) {
			continue
		}
		oi := out.O.Row(i)
		var l float32
		for j := 0; j < sk; j++ {
			if !allowed[j] {
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
}

// scalarAttention is attention by its definition: textbook triple loops over
// plain slices, one running float32 sum per element in increasing reduction
// index, no tensor product and no zero-skip anywhere. The dense oracles and
// the blocked engine share tensor's inner kernel, so blocked == dense cannot
// see a fault in it; this can.
func scalarAttention(q, k, v, dO *tensor.Tensor, m Mask, qPos []int, kOff int) (o, p, dQ, dK, dV *tensor.Tensor) {
	sq, sk, d := q.Rows(), k.Rows(), q.Cols()
	scale := float32(1 / math.Sqrt(float64(d)))
	o, p = tensor.New(sq, d), tensor.New(sq, sk)
	for i := 0; i < sq; i++ {
		row := p.Row(i)
		maxv := float32(math.Inf(-1))
		for j := 0; j < sk; j++ {
			var s float32
			for c := 0; c < d; c++ {
				s += q.At(i, c) * k.At(j, c)
			}
			row[j] = float32(math.Inf(-1))
			if m.Allowed(qPos[i], kOff+j) {
				row[j] = s * scale
			}
			maxv = max(maxv, row[j])
		}
		if math.IsInf(float64(maxv), -1) { // no allowed key: the row attends nothing
			for j := range row {
				row[j] = 0
			}
			continue
		}
		var sum float32
		for j := range row {
			row[j] = float32(math.Exp(float64(row[j] - maxv)))
			sum += row[j]
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
		for c := 0; c < d; c++ {
			var s float32
			for j := 0; j < sk; j++ {
				s += row[j] * v.At(j, c)
			}
			o.Set(i, c, s)
		}
	}

	dS := tensor.New(sq, sk)
	for i := 0; i < sq; i++ {
		dP := make([]float32, sk)
		var dot float32
		for j := 0; j < sk; j++ {
			for c := 0; c < d; c++ {
				dP[j] += dO.At(i, c) * v.At(j, c)
			}
			dot += p.At(i, j) * dP[j]
		}
		for j := 0; j < sk; j++ {
			dS.Set(i, j, p.At(i, j)*(dP[j]-dot))
		}
	}
	dQ, dK, dV = tensor.New(sq, d), tensor.New(sk, d), tensor.New(sk, d)
	for c := 0; c < d; c++ {
		for i := 0; i < sq; i++ {
			var s float32
			for j := 0; j < sk; j++ {
				s += dS.At(i, j) * k.At(j, c)
			}
			dQ.Set(i, c, s*scale)
		}
		for j := 0; j < sk; j++ {
			var gk, gv float32
			for i := 0; i < sq; i++ {
				gk += dS.At(i, j) * q.At(i, c)
				gv += p.At(i, j) * dO.At(i, c)
			}
			dK.Set(j, c, gk*scale)
			dV.Set(j, c, gv)
		}
	}
	return o, p, dQ, dK, dV
}

// TestBlockedMatchesScalarDefinition holds Forward and Backward bitwise equal
// to scalarAttention on a document mask (empty, partial and full tiles at the
// default tiling; head dim one 32-lane block plus one 8-lane block) and a
// causal mask whose head dim and lengths leave every kind of vector tail.
// The split cases run the bench's head dims under a document mask with the
// queries at the last sq positions: 8 (per-row accumulates), 16 (the 4×16
// register tile) and 48 (a 4×32 block plus a 4×16 one). Three workers split
// the 199 query rows into band pieces of 3 rows (the scalar score nest) and
// of 61, 6, 58 and 7 rows (1–3 rows past a 4-row group); at d ≥ 16 they
// split the key rows of the dV/dK sweeps mid-tile too, and the last key tile
// is 19 or 26 wide: a 16-column block plus a scalar tail in the score sweep.
func TestBlockedMatchesScalarDefinition(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	tailDocs := func(sk int) Mask { return Document{DocID: DocIDsFromLengths([]int{100, 3, sk - 103}, sk)} }
	for _, tc := range []struct {
		name      string
		sq, sk, d int
		m         Mask
		split     bool // queries at the last sq positions, split three ways
	}{
		{"document", 150, 150, 40, Document{DocID: DocIDsFromLengths([]int{70, 3, 50, 27}, 150)}, false},
		{"causal", 97, 101, 13, Causal{}, false},
		{"document/d8", 199, 1619, 8, tailDocs(1619), true},
		{"document/d16", 199, 1619, 16, tailDocs(1619), true},
		{"document/d48", 199, 602, 48, tailDocs(602), true},
	} {
		q, k, v := randQKV(77, tc.sq, tc.sk, tc.d)
		dO := tensor.RandN(rand.New(rand.NewSource(78)), 1, tc.sq, tc.d)
		qPos := Iota(tc.sq)
		if tc.split {
			for i := range qPos {
				qPos[i] += tc.sk - tc.sq
			}
			g := BuildGrid(tc.m, qPos, 0, tc.sk)
			if w := tensor.Workers(tc.sq, 2*sweptWork(g, tc.d)); w != 3 {
				t.Fatalf("%s: the forward runs %d workers, want a 3-way split", tc.name, w)
			}
			if w := tensor.Workers(tc.sk, sweptWork(g, tc.d)); tc.d >= 16 && w != 3 {
				t.Fatalf("%s: the key sweeps run %d workers, want a 3-way split", tc.name, w)
			}
		}
		wo, wp, wdq, wdk, wdv := scalarAttention(q, k, v, dO, tc.m, qPos, 0)
		out := Forward(q, k, v, tc.m, qPos, 0)
		dq, dk, dv := Backward(q, k, v, out.P, dO, tc.m, qPos, 0)
		for _, c := range []struct {
			what      string
			want, got *tensor.Tensor
		}{{"O", wo, out.O}, {"P", wp, out.P}, {"dQ", wdq, dq}, {"dK", wdk, dk}, {"dV", wdv, dv}} {
			if !tensor.BitwiseEqual(c.want, c.got) {
				t.Errorf("%s: %s differs from the scalar definition", tc.name, c.what)
			}
		}
	}
}

// TestMaskedNonFiniteKeysStayOut plants NaN and ±Inf in key rows that every
// query masks, inside a partial tile the sweeps run: their scores are
// masked to +0 probabilities, and dQ's accumulate must drop those zero
// coefficients (the register tile's per-row fallback, skip on) rather than
// multiply them into NaN. Forward and Backward equal the dense path bitwise
// and every output stays finite.
func TestMaskedNonFiniteKeysStayOut(t *testing.T) {
	const sq, sk, d = 100, 230, 16
	m := Document{DocID: DocIDsFromLengths([]int{100, 3, sk - 103}, sk)}
	qPos := make([]int, sq) // all in the third document: keys 0..102 are masked for every query
	for i := range qPos {
		qPos[i] = sk - sq + i
	}
	q, k, v := randQKV(71, sq, sk, d)
	inf := float32(math.Inf(1))
	for j, x := range map[int]float32{70: float32(math.NaN()), 80: inf, 90: -inf, 101: float32(math.NaN())} {
		for c := j % 3; c < d; c += 3 {
			k.Set(j, c, x)
		}
	}
	dense := DenseForward(q, k, v, m, qPos, 0)
	out := Forward(q, k, v, m, qPos, 0)
	dO := tensor.RandN(rand.New(rand.NewSource(72)), 1, sq, d)
	wdq, wdk, wdv := DenseBackward(q, k, v, dense.P, dO)
	dq, dk, dv := Backward(q, k, v, out.P, dO, m, qPos, 0)
	for _, c := range []struct {
		what      string
		want, got *tensor.Tensor
	}{{"O", dense.O, out.O}, {"P", dense.P, out.P}, {"dQ", wdq, dq}, {"dK", wdk, dk}, {"dV", wdv, dv}} {
		if !tensor.BitwiseEqual(c.want, c.got) {
			t.Errorf("%s differs from the dense path", c.what)
		}
		for i, x := range c.got.Data {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("%s[%d] = %v: a masked non-finite key reached the output", c.what, i, x)
			}
		}
	}
}

// TestRecurringDocIDsTakeConservativeGrid: Document compares ids, DocStarts
// reads every id change as a boundary, so when an id recurs after another
// document the two disagree (positions 140.. below attend 0..69 as well). The
// classifier must notice and fall back to the all-partial grid — exact by
// construction — with the brute-force pair count, under every tiling.
func TestRecurringDocIDsTakeConservativeGrid(t *testing.T) {
	const n, d = 200, 8
	ids := make([]int, n) // [0×70, 1×70, 0×60]
	for i := 70; i < 140; i++ {
		ids[i] = 1
	}
	m := Document{DocID: ids}
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)
	for _, til := range gridTilings {
		SetTiling(til[0], til[1])
		checkBlockedVsDense(t, labelFor("recurring", til, n, 0), 9900, n, n, d, m, Iota(n), 0)
		g := BuildGrid(m, Iota(n), 0, n)
		if g.PartialTiles != int64(len(g.Kinds)) || g.EmptyPairs != 0 {
			t.Fatalf("tiling %v: recurring ids classified %d/%d tiles partial, %d empty pairs; want all partial",
				til, g.PartialTiles, len(g.Kinds), g.EmptyPairs)
		}
		if want := int64(AllowedPairs(m, Iota(n), n)); g.AllowedPairs != want {
			t.Fatalf("tiling %v: grid reports %d allowed pairs, brute force %d", til, g.AllowedPairs, want)
		}
	}
}

func labelFor(mask string, til [2]int, sq, kOff int) string {
	return fmt.Sprintf("%s/%dx%d/sq=%d/kOff=%d", mask, til[0], til[1], sq, kOff)
}

// TestGridClassificationExact verifies the tile classifier against the
// per-element mask oracle: an empty tile must contain no allowed pair, a
// full tile only allowed pairs, AllowedPairs must equal the brute-force
// count, and EmptyPairs must equal the summed area of empty tiles. For
// contiguous query positions the classification must also be tight: a tile
// with no allowed pair is marked empty, an all-allowed tile full.
func TestGridClassificationExact(t *testing.T) {
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)
	SetTiling(4, 4)

	docIDs := DocIDsFromLengths([]int{7, 0, 5, 9, 1}, 30)
	cases := []struct {
		name string
		m    Mask
		qPos []int
		kOff int
		sk   int
	}{
		{"causal", Causal{}, Iota(19), 0, 19},
		{"causal_koff", Causal{}, Iota(19), 5, 14},
		{"causal_neg", Causal{}, []int{-2, -1, 0, 1, 2, 3, 4, 5}, 0, 12},
		{"document", Document{DocID: docIDs}, Iota(30), 0, 30},
		{"document_koff", Document{DocID: docIDs}, Iota(22), 3, 27},
		{"doc_ring_chunks", Document{DocID: docIDs}, append(Iota(8), 22, 23, 24, 25, 26, 27, 28, 29), 0, 30},
		{"full", Full{}, Iota(10), 0, 13},
		{"odd", oddMask{}, Iota(10), 0, 13},
	}
	for _, tc := range cases {
		g := BuildGrid(tc.m, tc.qPos, tc.kOff, tc.sk)
		var brute int64
		var emptyArea int64
		for rt := 0; rt < g.NRows; rt++ {
			r0 := rt * g.TileRows
			r1 := min(r0+g.TileRows, g.Sq)
			for ct := 0; ct < g.NCols; ct++ {
				c0 := ct * g.TileCols
				c1 := min(c0+g.TileCols, g.Sk)
				allowed, total := 0, 0
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						total++
						q, k := tc.qPos[i], tc.kOff+j
						if q >= 0 && tc.m.Allowed(q, k) {
							allowed++
							brute++
						}
					}
				}
				kind := g.Kind(rt, ct)
				if kind == TileEmpty && allowed != 0 {
					t.Fatalf("%s: tile (%d,%d) marked empty but has %d allowed pairs", tc.name, rt, ct, allowed)
				}
				if kind == TileFull && allowed != total {
					t.Fatalf("%s: tile (%d,%d) marked full but only %d/%d pairs allowed", tc.name, rt, ct, allowed, total)
				}
				if kind == TileEmpty {
					emptyArea += int64(total)
				}
				// Tightness for the interval-classified masks on contiguous rows.
				if _, isOdd := tc.m.(oddMask); !isOdd {
					if allowed == 0 && kind != TileEmpty && contiguous(tc.qPos[r0:r1]) {
						t.Fatalf("%s: tile (%d,%d) has no allowed pair but is not empty", tc.name, rt, ct)
					}
					if allowed == total && kind != TileFull && contiguous(tc.qPos[r0:r1]) {
						t.Fatalf("%s: tile (%d,%d) is all-allowed but not marked full", tc.name, rt, ct)
					}
				}
			}
		}
		if g.AllowedPairs != brute {
			t.Fatalf("%s: grid reports %d allowed pairs, brute force %d", tc.name, g.AllowedPairs, brute)
		}
		if g.EmptyPairs != emptyArea {
			t.Fatalf("%s: grid reports %d empty pairs, tile areas sum to %d", tc.name, g.EmptyPairs, emptyArea)
		}
		if got := g.FullTiles + g.PartialTiles + g.EmptyTiles; got != int64(len(g.Kinds)) {
			t.Fatalf("%s: tile census %d != %d tiles", tc.name, got, len(g.Kinds))
		}
	}
}

func contiguous(qPos []int) bool {
	for i := 1; i < len(qPos); i++ {
		if qPos[i] != qPos[i-1]+1 {
			return false
		}
	}
	return true
}

// TestBlockedFLOPAndStatsAccounting pins the effective-FLOP counter and the
// sparsity stats to their contracts: Forward counts 2 matmuls and Backward 4
// at nominal 2·m·k·n each, the effective counter subtracts exactly
// 2·d·EmptyPairs per matmul, and each recorded engine call folds exactly one
// grid summary — and the same FLOPs the tensor counters saw — into the
// caller's Recorder.
func TestBlockedFLOPAndStatsAccounting(t *testing.T) {
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)
	SetTiling(4, 4)

	const sq, sk, d = 16, 16, 8
	m := Document{DocID: DocIDsFromLengths([]int{6, 7, 3}, sk)}
	qPos := Iota(sq)
	q, k, v := randQKV(515, sq, sk, d)
	g := BuildGrid(m, qPos, 0, sk)
	if g.EmptyPairs == 0 {
		t.Fatal("test mask produces no empty tiles — accounting not exercised")
	}

	tensor.ResetFLOPCount()
	rec := &Recorder{}
	out := &Output{O: tensor.New(sq, d), P: tensor.New(sq, sk)}
	ForwardRecorded(out.O, out.P, q, k, v, m, qPos, 0, g, rec)
	nominalFwd := int64(2 * 2 * sq * sk * d)
	if got := tensor.FLOPCount(); got != nominalFwd {
		t.Fatalf("forward nominal FLOPs %d, want %d", got, nominalFwd)
	}
	if got, want := tensor.EffectiveFLOPCount(), nominalFwd-2*2*int64(d)*g.EmptyPairs; got != want {
		t.Fatalf("forward effective FLOPs %d, want %d", got, want)
	}
	if rec.Stats.Calls != 1 || rec.Stats != g.Summary() {
		t.Fatalf("forward recorded %+v != grid summary %+v", rec.Stats, g.Summary())
	}
	if rec.NominalFLOPs != tensor.FLOPCount() || rec.EffFLOPs != tensor.EffectiveFLOPCount() {
		t.Fatalf("forward recorder FLOPs %d/%d != tensor counters %d/%d",
			rec.EffFLOPs, rec.NominalFLOPs, tensor.EffectiveFLOPCount(), tensor.FLOPCount())
	}

	tensor.ResetFLOPCount()
	rec.Reset()
	dO := tensor.RandN(rand.New(rand.NewSource(516)), 1, sq, d)
	BackwardRecorded(q, k, v, out.P, dO, g, rec)
	nominalBwd := int64(4 * 2 * sq * sk * d)
	if got := tensor.FLOPCount(); got != nominalBwd {
		t.Fatalf("backward nominal FLOPs %d, want %d", got, nominalBwd)
	}
	if got, want := tensor.EffectiveFLOPCount(), nominalBwd-4*2*int64(d)*g.EmptyPairs; got != want {
		t.Fatalf("backward effective FLOPs %d, want %d", got, want)
	}
	if rec.Stats != g.Summary() || rec.NominalFLOPs != nominalBwd || rec.EffFLOPs != tensor.EffectiveFLOPCount() {
		t.Fatalf("backward recorded %+v eff %d nominal %d, want one grid summary %+v and the tensor counters",
			rec.Stats, rec.EffFLOPs, rec.NominalFLOPs, g.Summary())
	}

	tensor.ResetFLOPCount()
	p := PartialForwardInto(nil, q, k, v, m, qPos, 0)
	tensor.Put(p.O)
	nominalPart := int64(2 * sq * sk * d) // the scores matmul; the dense partial's PV sweep is uncounted
	if got := tensor.FLOPCount(); got != nominalPart {
		t.Fatalf("partial nominal FLOPs %d, want %d", got, nominalPart)
	}
	if got, want := tensor.EffectiveFLOPCount(), nominalPart-2*int64(d)*g.EmptyPairs; got != want {
		t.Fatalf("partial effective FLOPs %d, want %d", got, want)
	}
	tensor.ResetFLOPCount()
}

// TestSetTilingValidation covers the tiling API: SetTiling rejects
// non-positive tiles and returns the previous values for restoration.
func TestSetTilingValidation(t *testing.T) {
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)
	defer func() {
		if recover() == nil {
			t.Fatal("SetTiling(0, 4) did not panic")
		}
	}()
	r0, c0 := SetTiling(32, 16)
	if r1, c1 := SetTiling(r0, c0); r1 != 32 || c1 != 16 {
		t.Fatalf("SetTiling returned (%d,%d), want (32,16)", r1, c1)
	}
	SetTiling(0, 4)
}
