package attention

import (
	"fmt"
	"math"

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
// (DenseForward), which tests call directly as the oracle. The band loop is
// row-parallel above the tensor package's FLOP threshold: each query row is
// scored, masked and normalised independently, so the split is bitwise
// invisible (the §6.2 determinism contract).
func Forward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	return ForwardRecorded(q, k, v, m, qPos, kOff, nil)
}

// ForwardRecorded is Forward with a per-rank census recorder: the call's
// tile grid is folded into rec (2 sweeps — scores and P·V). A nil rec
// records nothing.
func ForwardRecorded(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int, rec *Recorder) *Output {
	checkShapes(q, k, v, qPos)
	g := BuildGrid(m, qPos, kOff, k.Rows())
	o, s := tensor.Get(q.Rows(), q.Cols()), tensor.Get(q.Rows(), k.Rows())
	forward(o, s, q, k, v, m, qPos, kOff, g, rec, nil)
	return &Output{O: o, P: s}
}

// DenseForward is the dense reference kernel: the full score matrix is
// materialised and swept with per-row masking regardless of mask structure.
// It is the oracle the blocked engine is property-tested against
// (blocked_test.go, kernels_test.go); no training or serving path calls it.
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

func checkShapes(q, k, v *tensor.Tensor, qPos []int) {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	if len(qPos) != sq {
		panic(fmt.Sprintf("attention: %d qPos for %d query rows", len(qPos), sq))
	}
	if k.Cols() != d || v.Rows() != sk {
		panic(fmt.Sprintf("attention: shape mismatch q%v k%v v%v", q.Shape, k.Shape, v.Shape))
	}
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

// Backward computes gradients for Forward given the saved probabilities.
// Returns dQ, dK, dV. The mask carries no new information for correctness —
// masked entries of P are exactly zero, which zeroes their contribution to
// every gradient — but it lets the blocked engine classify and skip empty
// tiles of the dP/dS sweeps instead of discovering the zeros value by value,
// and keeps the measured skipped-tile volume equal to the closed-form
// prediction (metrics/xval) rather than dependent on float underflow.
func Backward(q, k, v, p, dO *tensor.Tensor, m Mask, qPos []int, kOff int) (dQ, dK, dV *tensor.Tensor) {
	return BackwardRecorded(q, k, v, p, dO, m, qPos, kOff, nil)
}

// BackwardRecorded is Backward with a per-rank census recorder: the call's
// tile grid is folded into rec (4 sweeps — dV, dP, dQ, dK). A nil rec
// records nothing.
func BackwardRecorded(q, k, v, p, dO *tensor.Tensor, m Mask, qPos []int, kOff int, rec *Recorder) (dQ, dK, dV *tensor.Tensor) {
	checkShapes(q, k, v, qPos)
	if sq, sk, d := q.Rows(), k.Rows(), q.Cols(); p.Rows() != sq || p.Cols() != sk || dO.Rows() != sq || dO.Cols() != d {
		panic(fmt.Sprintf("attention: shape mismatch q%v k%v p%v dO%v", q.Shape, k.Shape, p.Shape, dO.Shape))
	}
	return blockedBackward(q, k, v, p, dO, m, qPos, kOff, rec)
}

// DenseBackward is the dense reference backward pass: every gradient product
// sweeps the full score plane, relying only on the exact zeros of masked
// probabilities. Oracle for the blocked engine in blocked_test.go and
// kernels_test.go; no training path calls it.
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
			dot += pi[j] * dpi[j]
		}
		for j := range pi {
			dsi[j] = pi[j] * (dpi[j] - dot)
		}
	}
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
	s := tensor.GetUninit(sq, sk)
	forward(out.O, s, q, k, v, m, qPos, kOff, BuildGrid(m, qPos, kOff, sk), nil, out)
	tensor.Put(s)
	return out
}

// DensePartialForwardInto is the dense reference partial kernel: the oracle
// blocked_test.go holds the blocked one to. No serving path calls it.
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
	if cap(out.M) < sq {
		out.M = make([]float32, sq)
		out.L = make([]float32, sq)
	}
	out.M = out.M[:sq]
	out.L = out.L[:sq]
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
