package attention

import (
	"fmt"

	"llama4d/internal/tensor"
)

// Output holds the results of an attention forward pass for one head.
type Output struct {
	O *tensor.Tensor // [sq, d] attention output
	P *tensor.Tensor // [sq, sk] post-softmax probabilities (saved for backward)
}

// Forward computes masked scaled-dot-product attention. qPos gives the
// global position of each query row; keys occupy global positions
// kOff..kOff+sk-1.
//
// The mask-structured blocked engine runs (blocked.go, forward): score tiles
// with no allowed pair are skipped in every sweep and fully-allowed tiles run
// without per-element mask checks — bitwise identical to the dense reference
// (DenseForward, the oracle in this package's tests). The band loop is
// row-parallel above the tensor package's FLOP threshold: each query row is
// scored, masked and normalised independently, so the split is bitwise
// invisible (the §6.2 determinism contract). P's empty tiles are cleared.
func Forward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	checkShapes(q, k, v, qPos)
	g := BuildGrid(m, qPos, kOff, k.Rows())
	o, s := tensor.Get(q.Rows(), q.Cols()), tensor.GetUninit(q.Rows(), k.Rows())
	forward(o, s, q, k, v, m, qPos, kOff, g, nil, nil, tensor.Workers(q.Rows(), 2*sweptWork(g, q.Cols())))
	for i := range g.Sq {
		for ct := range g.NCols {
			if c0, c1 := g.colBand(ct); g.Kind(i/g.TileRows, ct) == TileEmpty {
				clear(s.Row(i)[c0:c1])
			}
		}
	}
	return &Output{O: o, P: s}
}

// ForwardRecorded is the per-head entry of model.MultiHead, which runs heads
// in parallel: Forward over the caller's grid g as one serial pass into the
// caller's buffers, the tile census folded into rec (2 sweeps; a nil rec
// records nothing). o ([sq, d], any contents) is overwritten with the output
// and s ([sq, sk], any contents) with the probabilities, defined on g's
// non-empty tiles only; no sweep, BackwardRecorded's included, reads the
// others, which keep whatever s held.
func ForwardRecorded(o, s, q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int, g *Grid, rec *Recorder) {
	checkShapes(q, k, v, qPos)
	if o.Rows() != q.Rows() || o.Cols() != q.Cols() || s.Rows() != q.Rows() || s.Cols() != k.Rows() {
		panic(fmt.Sprintf("attention: destinations o%v s%v for q%v k%v", o.Shape, s.Shape, q.Shape, k.Shape))
	}
	clear(o.Data)
	forward(o, s, q, k, v, m, qPos, kOff, g, rec, nil, 1)
}

func checkShapes(q, k, v *tensor.Tensor, qPos []int) {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	if len(qPos) != sq {
		panic(fmt.Sprintf("attention: %d qPos for %d query rows", len(qPos), sq))
	}
	if k.Cols() != d || v.Rows() != sk || v.Cols() != d {
		panic(fmt.Sprintf("attention: shape mismatch q%v k%v v%v", q.Shape, k.Shape, v.Shape))
	}
}

// Backward computes gradients for Forward given the saved probabilities.
// Returns dQ, dK, dV. The mask carries no new information for correctness —
// masked entries of P are exactly zero, which zeroes their contribution to
// every gradient — but it lets the blocked engine classify and skip empty
// tiles of the dP/dS sweeps instead of discovering the zeros value by value,
// and keeps the measured skipped-tile volume equal to the closed-form
// prediction (metrics/xval) rather than dependent on float underflow. One
// serial pass over the row bands (blocked.go, backward).
func Backward(q, k, v, p, dO *tensor.Tensor, m Mask, qPos []int, kOff int) (dQ, dK, dV *tensor.Tensor) {
	return BackwardRecorded(q, k, v, p, dO, BuildGrid(m, qPos, kOff, k.Rows()), nil)
}

// BackwardRecorded is Backward over the caller's grid g, the per-head entry
// of model.MultiHeadBackward, with the tile census folded into rec (4 sweeps
// — dV, dP, dQ, dK). It reads p on g's non-empty tiles only.
func BackwardRecorded(q, k, v, p, dO *tensor.Tensor, g *Grid, rec *Recorder) (dQ, dK, dV *tensor.Tensor) {
	if sq, sk, d := q.Rows(), k.Rows(), q.Cols(); k.Cols() != d || v.Rows() != sk || v.Cols() != d || p.Rows() != sq || p.Cols() != sk || dO.Rows() != sq || dO.Cols() != d {
		panic(fmt.Sprintf("attention: shape mismatch q%v k%v v%v p%v dO%v", q.Shape, k.Shape, v.Shape, p.Shape, dO.Shape))
	}
	return backward(q, k, v, p, dO, g, rec)
}

// Partial is the result of attending a block of keys: an unnormalised output
// plus per-query-row softmax statistics (running max m and sum l), the
// log-sum-exp form flash attention and TransformerEngine's ring merge partial
// results in (the "scaling and rescaling" of §4). Nothing in this repository
// merges partials any more — the CP ring streams score columns and finishes
// once — so the type's only caller outside tests is bench/'s
// attention.partial_fwd_ms.doc2048 probe; retiring it is a [benchmark] PR.
type Partial struct {
	O *tensor.Tensor // [sq, d]; rows scaled by their block-local softmax
	M []float32      // per-row running max of masked logits
	L []float32      // per-row sum of exp(logit - M)
}

// PartialForwardInto computes flash-style attention of q against one key
// block: the forward's band loop with each row's final × 1/sum replaced by
// storing its max and sum. Rows with no allowed key get M = -Inf, L = 0,
// O = 0. A non-nil out (of matching query count and head dim) is overwritten
// and returned, recycling its O tensor and M/L slices; a nil out allocates a
// fresh Partial from the tensor pool. Bitwise equal to
// DensePartialForwardInto for any worker split and tiling. Kept for bench/'s
// attention.partial_fwd_ms.doc2048 probe, its only caller outside tests.
func PartialForwardInto(out *Partial, q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Partial {
	checkShapes(q, k, v, qPos)
	sq, sk := q.Rows(), k.Rows()
	out = preparePartial(out, sq, q.Cols())
	s, g := tensor.GetUninit(sq, sk), BuildGrid(m, qPos, kOff, sk)
	forward(out.O, s, q, k, v, m, qPos, kOff, g, nil, out, tensor.Workers(sq, 2*sweptWork(g, q.Cols())))
	tensor.Put(s)
	return out
}

// preparePartial returns out ready to accumulate an [sq, d] partial: a nil
// out allocates from the tensor pool, an existing one has its O zeroed (or
// reallocated on shape change) and its M/L slices resized. It serves the
// bench probe's scratch reuse through PartialForwardInto, and the oracle.
func preparePartial(out *Partial, sq, d int) *Partial {
	if out == nil {
		return &Partial{O: tensor.Get(sq, d), M: make([]float32, sq), L: make([]float32, sq)}
	}
	if out.O == nil || out.O.Rows() != sq || out.O.Cols() != d {
		tensor.Put(out.O)
		out.O = tensor.Get(sq, d)
	} else {
		out.O.Zero()
	}
	if cap(out.M) < sq || cap(out.L) < sq {
		out.M = make([]float32, sq)
		out.L = make([]float32, sq)
	}
	out.M = out.M[:sq]
	out.L = out.L[:sq]
	return out
}
