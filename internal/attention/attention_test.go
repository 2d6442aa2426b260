package attention

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"llama4d/internal/tensor"
)

func randQKV(seed int64, sq, sk, d int) (q, k, v *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandN(rng, 0.5, sq, d), tensor.RandN(rng, 0.5, sk, d), tensor.RandN(rng, 0.5, sk, d)
}

func TestMaskSemantics(t *testing.T) {
	if !(Full{}).Allowed(0, 5) {
		t.Fatal("Full must allow everything")
	}
	c := Causal{}
	if !c.Allowed(3, 3) || !c.Allowed(3, 0) || c.Allowed(3, 4) {
		t.Fatal("Causal semantics wrong")
	}
	d := Document{DocID: []int{0, 0, 1, 1}}
	if !d.Allowed(1, 0) || d.Allowed(2, 1) || d.Allowed(1, 2) || !d.Allowed(3, 2) {
		t.Fatal("Document semantics wrong")
	}
}

func TestDocIDsFromLengths(t *testing.T) {
	ids := DocIDsFromLengths([]int{3, 3, 8, 2}, 16)
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v", ids)
		}
	}
	// Truncation mid-document.
	ids = DocIDsFromLengths([]int{3, 10}, 5)
	if len(ids) != 5 || ids[4] != 1 {
		t.Fatalf("truncated ids = %v", ids)
	}
	// Shorter than seq: padded with singleton docs.
	ids = DocIDsFromLengths([]int{2}, 4)
	if len(ids) != 4 || ids[2] == ids[3] || ids[1] == ids[2] {
		t.Fatalf("padded ids = %v", ids)
	}
}

func TestDocIDsFromEOS(t *testing.T) {
	eos := 99
	tokens := []int{5, 6, eos, 7, eos, 8}
	ids := DocIDsFromEOS(tokens, eos)
	want := []int{0, 0, 0, 1, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestAllowedPairsCausal(t *testing.T) {
	seq := 16
	n := AllowedPairs(Causal{}, Iota(seq), seq)
	if n != seq*(seq+1)/2 {
		t.Fatalf("causal pairs = %d, want %d", n, seq*(seq+1)/2)
	}
}

func TestAllowedPairsDocumentLessThanCausal(t *testing.T) {
	seq := 64
	ids := DocIDsFromLengths([]int{16, 16, 16, 16}, seq)
	nd := AllowedPairs(Document{DocID: ids}, Iota(seq), seq)
	nc := AllowedPairs(Causal{}, Iota(seq), seq)
	if nd >= nc {
		t.Fatalf("document pairs %d must be < causal %d", nd, nc)
	}
	// Four equal docs: each contributes 16*17/2.
	if want := 4 * 16 * 17 / 2; nd != want {
		t.Fatalf("document pairs = %d, want %d", nd, want)
	}
}

func TestForwardRowsAreConvexCombinations(t *testing.T) {
	q, k, v := randQKV(1, 8, 8, 4)
	out := Forward(q, k, v, Causal{}, Iota(8), 0)
	// Each P row must be a probability distribution over allowed keys.
	for i := 0; i < 8; i++ {
		var sum float32
		for j := 0; j < 8; j++ {
			p := out.P.At(i, j)
			if j > i && p != 0 {
				t.Fatalf("P[%d,%d]=%v violates causal mask", i, j, p)
			}
			if p < 0 {
				t.Fatalf("negative probability")
			}
			sum += p
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestForwardFirstTokenAttendsSelfOnly(t *testing.T) {
	q, k, v := randQKV(2, 4, 4, 8)
	out := Forward(q, k, v, Causal{}, Iota(4), 0)
	// Row 0 attends only key 0 ⇒ output row 0 == v row 0.
	for c := 0; c < 8; c++ {
		if math.Abs(float64(out.O.At(0, c)-v.At(0, c))) > 1e-5 {
			t.Fatalf("first token output must equal first value row")
		}
	}
}

func TestDocumentMaskBlocksCrossDocAttention(t *testing.T) {
	sq := 8
	q, k, v := randQKV(3, sq, sq, 4)
	ids := DocIDsFromLengths([]int{4, 4}, sq)
	out := Forward(q, k, v, Document{DocID: ids}, Iota(sq), 0)
	// Token 4 starts doc 1: it attends only itself.
	for c := 0; c < 4; c++ {
		if math.Abs(float64(out.O.At(4, c)-v.At(4, c))) > 1e-5 {
			t.Fatal("doc-boundary token must attend only itself")
		}
	}
	for j := 0; j < 4; j++ {
		if out.P.At(4, j) != 0 {
			t.Fatal("cross-document probability must be zero")
		}
	}
}

// streamedForward feeds the key axis to StreamScores in blocks of blockSize
// and finishes once — the ring's structure, at block sizes far below a tile.
func streamedForward(q, k, v *tensor.Tensor, m Mask, qPos []int, blockSize int) *Output {
	sk := k.Rows()
	g := BuildGrid(m, qPos, 0, sk)
	s := tensor.Get(q.Rows(), sk)
	for off := 0; off < sk; off += blockSize {
		end := min(off+blockSize, sk)
		StreamScores(s, q, k.RowSlice(off, end), 0, 0, off, end-off, g)
	}
	return StreamFinish(s, v, m, qPos, g, nil)
}

func TestStreamedMatchesForward(t *testing.T) {
	for _, blockSize := range []int{1, 2, 3, 8, 64} {
		q, k, v := randQKV(4, 16, 16, 8)
		want := Forward(q, k, v, Causal{}, Iota(16), 0)
		got := streamedForward(q, k, v, Causal{}, Iota(16), blockSize)
		if !tensor.BitwiseEqual(want.O, got.O) || !tensor.BitwiseEqual(want.P, got.P) {
			t.Fatalf("block %d: streamed differs from Forward", blockSize)
		}
	}
}

func TestStreamedMatchesForwardDocumentMask(t *testing.T) {
	seq := 32
	ids := DocIDsFromLengths([]int{5, 11, 9, 7}, seq)
	q, k, v := randQKV(5, seq, seq, 8)
	m := Document{DocID: ids}
	want := Forward(q, k, v, m, Iota(seq), 0)
	for _, bs := range []int{4, 7, 32} {
		got := streamedForward(q, k, v, m, Iota(seq), bs)
		if !tensor.BitwiseEqual(want.O, got.O) || !tensor.BitwiseEqual(want.P, got.P) {
			t.Fatalf("doc mask, block %d: streamed differs from Forward", bs)
		}
	}
}

// TestMergeWithEmptyBlockIsNeutral: a key block entirely after every query
// contributes the log-sum-exp merge's neutral element — each row's statistics
// are M = -Inf, L = 0 and its unnormalised output is zero. (The merge itself
// is gone; what PartialForwardInto stores for such a block is what is kept.)
func TestMergeWithEmptyBlockIsNeutral(t *testing.T) {
	q, k, v := randQKV(7, 4, 4, 4)
	empty := PartialForwardInto(nil, q, k, v, Causal{}, Iota(4), 100)
	for i := range empty.M {
		if !math.IsInf(float64(empty.M[i]), -1) || empty.L[i] != 0 {
			t.Fatalf("row %d: (M, L) = (%v, %v), want (-Inf, 0)", i, empty.M[i], empty.L[i])
		}
	}
	for _, x := range empty.O.Data {
		if x != 0 {
			t.Fatalf("fully masked partial rows must be zero, got %v", empty.O.Data)
		}
	}
}

func TestQPosOffsetsEquivalence(t *testing.T) {
	// Computing rows 8..15 with explicit positions must equal slicing the
	// full computation — the property CP sharding relies on.
	seq := 16
	q, k, v := randQKV(8, seq, seq, 8)
	fullOut := Forward(q, k, v, Causal{}, Iota(seq), 0).O
	qPos := []int{8, 9, 10, 11, 12, 13, 14, 15}
	partOut := Forward(q.RowSlice(8, 16), k, v, Causal{}, qPos, 0).O
	if d := tensor.MaxDiff(partOut, fullOut.RowSlice(8, 16)); d > 1e-5 {
		t.Fatalf("qPos slicing diff %v", d)
	}
}

func TestBackwardGradCheck(t *testing.T) {
	// Central finite differences on a scalar loss L = sum(O ∘ W).
	sq, sk, d := 5, 7, 4
	q, k, v := randQKV(9, sq, sk, d)
	rng := rand.New(rand.NewSource(10))
	w := tensor.RandN(rng, 1, sq, d)
	masks := []Mask{Full{}, Causal{}, Document{DocID: DocIDsFromLengths([]int{3, 4}, 7)}}
	for mi, m := range masks {
		qPos := Iota(sq)
		out := Forward(q, k, v, m, qPos, 0)
		dO := w
		dQ, dK, dV := Backward(q, k, v, out.P, dO, m, qPos, 0)

		loss := func() float64 {
			o := Forward(q, k, v, m, qPos, 0).O
			return tensor.Dot(o, w)
		}
		check := func(name string, param, grad *tensor.Tensor) {
			const eps = 1e-3
			for _, idx := range []int{0, 1, len(param.Data) / 2, len(param.Data) - 1} {
				orig := param.Data[idx]
				param.Data[idx] = orig + eps
				lp := loss()
				param.Data[idx] = orig - eps
				lm := loss()
				param.Data[idx] = orig
				numeric := (lp - lm) / (2 * eps)
				analytic := float64(grad.Data[idx])
				if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
					t.Fatalf("mask %d %s[%d]: numeric %v analytic %v", mi, name, idx, numeric, analytic)
				}
			}
		}
		check("dQ", q, dQ)
		check("dK", k, dK)
		check("dV", v, dV)
	}
}

func TestBackwardMaskedGradientsZero(t *testing.T) {
	// Keys that no query may attend must receive exactly zero gradient.
	sq := 4
	q, k, v := randQKV(11, sq, sq, 4)
	ids := DocIDsFromLengths([]int{2, 2}, sq)
	out := Forward(q, k, v, Document{DocID: ids}, Iota(sq), 0)
	rng := rand.New(rand.NewSource(12))
	dO := tensor.RandN(rng, 1, sq, 4)
	_, dK, dV := Backward(q, k, v, out.P, dO, Document{DocID: ids}, Iota(sq), 0)
	_ = dK
	// Key 3 is attended only by query 3; key 1 only by query 1 within doc 0...
	// Stronger check: zero dO for queries of doc 1 ⇒ zero dV for keys of doc 1.
	dO2 := dO.Clone()
	dO2.Row(2)[0] = 0
	for c := range dO2.Row(2) {
		dO2.Row(2)[c] = 0
		dO2.Row(3)[c] = 0
	}
	_, _, dV2 := Backward(q, k, v, out.P, dO2, Document{DocID: ids}, Iota(sq), 0)
	for j := 2; j < 4; j++ {
		for c := 0; c < 4; c++ {
			if dV2.At(j, c) != 0 {
				t.Fatalf("dV[%d] must be zero when doc-1 outputs have no gradient", j)
			}
		}
	}
	_ = dV
}

func TestStreamedFullyMaskedRowIsZero(t *testing.T) {
	q, k, v := randQKV(13, 2, 4, 4)
	// Query positions before all keys: nothing allowed under causal mask.
	blocked := Forward(q, k, v, Causal{}, []int{-1, -2}, 0)
	for _, x := range blocked.O.Data {
		if x != 0 {
			t.Fatalf("fully masked blocked rows must be zero, got %v", blocked.O.Data)
		}
	}
}

func BenchmarkDenseAttention(b *testing.B) {
	q, k, v := randQKV(1, 256, 256, 64)
	pos := Iota(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseForward(q, k, v, Causal{}, pos, 0)
	}
}

func BenchmarkBlockedAttention(b *testing.B) {
	q, k, v := randQKV(1, 256, 256, 64)
	pos := Iota(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(q, k, v, Causal{}, pos, 0)
	}
}

// TestBackwardRejectsMisshapenPlane: Backward validates the saved
// probabilities and the output gradient at entry, like Forward does its
// operands — a [sq, sk-1] plane or a [sq-1, d] gradient is a shape-mismatch
// panic before any sweep runs (no FLOPs counted), not an index panic inside a
// worker.
func TestBackwardRejectsMisshapenPlane(t *testing.T) {
	const sq, sk, d = 6, 7, 4
	q, k, v := randQKV(14, sq, sk, d)
	for name, bad := range map[string][2]*tensor.Tensor{
		"p":  {tensor.New(sq, sk-1), tensor.New(sq, d)},
		"dO": {tensor.New(sq, sk), tensor.New(sq-1, d)},
	} {
		func() {
			tensor.ResetFLOPCount()
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "attention: shape mismatch") {
					t.Fatalf("%s: recovered %q, want an attention: shape mismatch panic", name, msg)
				}
				if n := tensor.FLOPCount(); n != 0 {
					t.Fatalf("%s: %d FLOPs counted before the shape check fired", name, n)
				}
			}()
			Backward(q, k, v, bad[0], bad[1], Causal{}, Iota(sq), 0)
		}()
	}
}
