package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/tensor"
)

// serialHeads is the head loop MultiHead and MultiHeadBackward ran before
// the heads were split over goroutines, frozen as the oracle of
// TestMultiHeadSplitBitwise: one head after another, each attention.Forward
// and attention.Backward on its column blocks (both held bitwise to the
// dense reference kernels in attention's own tests, on this test's two
// shapes among others), its output and gradients added into the results in
// increasing head order, its census recorded as one Forward (2 sweeps) and
// one Backward (4 sweeps) call.
func serialHeads(q, k, v, dConcat *tensor.Tensor, nHeads int, mask attention.Mask, qPos []int, rec *attention.Recorder) (concat, dq, dk, dv *tensor.Tensor, probs []*tensor.Tensor) {
	hd := q.Cols() / nHeads
	group := nHeads / (k.Cols() / hd)
	g := attention.BuildGrid(mask, qPos, 0, k.Rows())
	cols := func(t *tensor.Tensor, h int) *tensor.Tensor {
		out := tensor.New(t.Rows(), hd)
		for i := 0; i < t.Rows(); i++ {
			copy(out.Row(i), t.Row(i)[h*hd:(h+1)*hd])
		}
		return out
	}
	add := func(dst, src *tensor.Tensor, h int) {
		for i := 0; i < dst.Rows(); i++ {
			di := dst.Row(i)[h*hd : (h+1)*hd]
			for j, x := range src.Row(i) {
				di[j] += x
			}
		}
	}
	concat = tensor.New(q.Rows(), q.Cols())
	dq, dk, dv = tensor.New(q.Rows(), q.Cols()), tensor.New(k.Rows(), k.Cols()), tensor.New(v.Rows(), v.Cols())
	for h := 0; h < nHeads; h++ {
		qh, kh, vh := cols(q, h), cols(k, h/group), cols(v, h/group)
		out := attention.Forward(qh, kh, vh, mask, qPos, 0)
		rec.Record(g, 2, hd)
		add(concat, out.O, h)
		probs = append(probs, out.P)
		dqh, dkh, dvh := attention.Backward(qh, kh, vh, out.P, cols(dConcat, h), mask, qPos, 0)
		rec.Record(g, 4, hd)
		add(dq, dqh, h)
		add(dk, dkh, h/group)
		add(dv, dvh, h/group)
	}
	return concat, dq, dk, dv, probs
}

// TestMultiHeadSplitBitwise holds MultiHead and MultiHeadBackward, whose
// heads run on tensor.Workers goroutines and fold in after the join, bitwise
// equal to the frozen serial head loop (serialHeads): the output, every
// head's probabilities on the grid's non-empty tiles (the planes' only
// defined words), dq, dk, dv and the Recorder census, at GOMAXPROCS 1–4,
// nHeads 1, 2, 3, 4 and 8 with GQA groups 1, 2 and 4, a shape below the
// worker threshold and one above it, pooled and unpooled.
func TestMultiHeadSplitBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer tensor.SetPooling(tensor.SetPooling(false))
	shapes := []struct {
		name     string
		seq, hd  int
		mask     attention.Mask
		parallel bool // whether two or more heads clear the worker threshold
	}{
		{"small", 40, 8, attention.Document{DocID: attention.DocIDsFromLengths([]int{13, 20, 7}, 40)}, false},
		{"large", 384, 16, attention.Causal{}, true},
	}
	for _, sh := range shapes {
		qPos := attention.Iota(sh.seq)
		g := attention.BuildGrid(sh.mask, qPos, 0, sh.seq)
		for _, nH := range []int{1, 2, 3, 4, 8} {
			for _, group := range []int{1, 2, 4} {
				if nH%group != 0 {
					continue
				}
				label := fmt.Sprintf("%s/heads=%d/group=%d", sh.name, nH, group)
				work := nH * 2 * sh.hd * int(g.TotalPairs()-g.EmptyPairs)
				runtime.GOMAXPROCS(4)
				if split := tensor.Workers(nH, work) > 1; split != (sh.parallel && nH > 1) {
					t.Fatalf("%s: head split %v, want %v", label, split, sh.parallel && nH > 1)
				}
				rng := rand.New(rand.NewSource(int64(100*nH + group)))
				q := tensor.RandN(rng, 0.5, sh.seq, nH*sh.hd)
				k := tensor.RandN(rng, 0.5, sh.seq, nH/group*sh.hd)
				v := tensor.RandN(rng, 0.5, sh.seq, nH/group*sh.hd)
				dConcat := tensor.RandN(rng, 1, sh.seq, nH*sh.hd)
				var wantRec attention.Recorder
				wantO, wantDq, wantDk, wantDv, wantP := serialHeads(q, k, v, dConcat, nH, sh.mask, qPos, &wantRec)
				for procs := 1; procs <= 4; procs++ {
					for _, pooled := range []bool{false, true} {
						runtime.GOMAXPROCS(procs)
						tensor.SetPooling(pooled)
						at := fmt.Sprintf("%s/procs=%d/pooled=%v", label, procs, pooled)
						var rec attention.Recorder
						probs := make([]*tensor.Tensor, nH)
						o := MultiHead(q, k, v, nH, sh.mask, qPos, &rec, probs)
						if !tensor.BitwiseEqual(o, wantO) {
							t.Fatalf("%s: MultiHead output differs from the serial loop", at)
						}
						for h, p := range probs {
							checkNonEmptyTiles(t, fmt.Sprintf("%s: head %d", at, h), g, p, wantP[h])
						}
						dq, dk, dv := MultiHeadBackward(q, k, v, dConcat, probs, sh.mask, qPos, &rec)
						switch {
						case !tensor.BitwiseEqual(dq, wantDq):
							t.Fatalf("%s: dq differs from the serial loop", at)
						case !tensor.BitwiseEqual(dk, wantDk):
							t.Fatalf("%s: dk differs from the serial loop", at)
						case !tensor.BitwiseEqual(dv, wantDv):
							t.Fatalf("%s: dv differs from the serial loop", at)
						case rec != wantRec:
							t.Fatalf("%s: census %+v, serial loop %+v", at, rec, wantRec)
						}
						tensor.Put(o, dq, dk, dv)
					}
				}
			}
		}
	}
}

// checkNonEmptyTiles fails unless got equals want bit for bit on g's
// non-empty tiles.
func checkNonEmptyTiles(t *testing.T, label string, g *attention.Grid, got, want *tensor.Tensor) {
	t.Helper()
	for i := 0; i < g.Sq; i++ {
		for j := 0; j < g.Sk; j++ {
			if g.Kind(i/g.TileRows, j/g.TileCols) == attention.TileEmpty {
				continue
			}
			if x, w := got.At(i, j), want.At(i, j); math.Float32bits(x) != math.Float32bits(w) {
				t.Fatalf("%s: P[%d][%d] = %v, serial loop %v", label, i, j, x, w)
			}
		}
	}
}
