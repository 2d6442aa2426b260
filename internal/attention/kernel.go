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
// The mask-structured blocked engine runs (blocked.go): score tiles with no
// allowed pair are skipped in every sweep and fully-allowed tiles run without
// per-element mask checks — bitwise identical to the dense reference
// (DenseForward), which tests call directly as the oracle. The mask/softmax
// sweep is row-parallel above the tensor package's FLOP threshold: each query
// row is masked and normalised independently, so the split is bitwise
// invisible (the §6.2 determinism contract).
func Forward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	return ForwardRecorded(q, k, v, m, qPos, kOff, nil)
}

// ForwardRecorded is Forward with a per-rank census recorder: the call's
// tile grid is folded into rec (2 sweeps — scores and P·V). A nil rec
// records nothing.
func ForwardRecorded(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int, rec *Recorder) *Output {
	checkShapes(q, k, v, qPos)
	return blockedForward(q, k, v, m, qPos, kOff, rec)
}

// DenseForward is the dense reference kernel: the full score matrix is
// materialised and swept with per-row masking regardless of mask structure.
// It is the oracle the blocked engine is property-tested against; no
// training or serving path calls it.
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
	return blockedBackward(q, k, v, p, dO, m, qPos, kOff, rec)
}

// DenseBackward is the dense reference backward pass: every gradient product
// sweeps the full score plane, relying only on the exact zeros of masked
// probabilities. Oracle for the blocked engine.
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
// plus per-query-row softmax statistics (running max m and sum l), in the
// log-sum-exp form flash attention and ring attention use to merge partial
// results across blocks (the "scaling and rescaling" of §4).
type Partial struct {
	O *tensor.Tensor // [sq, d]; rows scaled by their block-local softmax
	M []float32      // per-row running max of masked logits
	L []float32      // per-row sum of exp(logit - M)
}

// PartialForward computes flash-style attention of q against one key block.
// Rows with no allowed keys get M = -Inf, L = 0, O = 0 and merge as neutral
// elements.
func PartialForward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Partial {
	return PartialForwardInto(nil, q, k, v, m, qPos, kOff)
}

// PartialForwardInto is the buffer-reusing variant of PartialForward: a
// non-nil out (of matching query count and head dim) is overwritten and
// returned, recycling its O tensor and M/L slices — one key block after
// another can stream through the same scratch Partial (ring attention). A
// nil out allocates a fresh Partial from the tensor pool.
//
// Like Forward it runs the blocked engine; the per-row online-softmax sweep
// is row-parallel above the FLOP threshold and rows are independent, so
// neither the worker split nor the tile skipping ever changes bits.
func PartialForwardInto(out *Partial, q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Partial {
	checkShapes(q, k, v, qPos)
	return blockedPartialInto(out, q, k, v, m, qPos, kOff)
}

// DensePartialForwardInto is the dense reference partial kernel (oracle for
// the blocked one).
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
// reallocated on shape change) and its M/L slices resized.
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

// ReleasePartial retires p's output buffer into the tensor pool. The caller
// must hold no references to p.O afterwards.
func ReleasePartial(p *Partial) {
	if p == nil {
		return
	}
	tensor.Put(p.O)
	p.O = nil
}

// Merge combines two partials over disjoint key blocks into one partial over
// their union, using log-sum-exp rescaling. It is associative and
// commutative up to floating-point rounding.
func Merge(a, b *Partial) *Partial {
	sq, d := a.O.Rows(), a.O.Cols()
	out := &Partial{O: tensor.Get(sq, d), M: make([]float32, sq), L: make([]float32, sq)}
	mergeRows(out, a, b)
	return out
}

// MergeInPlace merges b into acc (acc ← Merge(acc, b)) without allocating:
// the in-place variant block-streaming merges use so every block merge stops
// costing one [sq, d] tensor. Bitwise identical to Merge because each output
// row depends only on the same row of the two inputs.
func MergeInPlace(acc, b *Partial) {
	mergeRows(acc, acc, b)
}

func mergeRows(out, a, b *Partial) {
	sq, d := a.O.Rows(), a.O.Cols()
	for i := 0; i < sq; i++ {
		ma, mb := a.M[i], b.M[i]
		m := ma
		if mb > m {
			m = mb
		}
		out.M[i] = m
		if math.IsInf(float64(m), -1) {
			out.L[i] = 0
			if out != a {
				oi := out.O.Row(i)
				for c := 0; c < d; c++ {
					oi[c] = 0
				}
			}
			continue
		}
		wa, wb := float32(0), float32(0)
		if !math.IsInf(float64(ma), -1) {
			wa = float32(math.Exp(float64(ma - m)))
		}
		if !math.IsInf(float64(mb), -1) {
			wb = float32(math.Exp(float64(mb - m)))
		}
		out.L[i] = wa*a.L[i] + wb*b.L[i]
		oa, ob, oo := a.O.Row(i), b.O.Row(i), out.O.Row(i)
		for c := 0; c < d; c++ {
			oo[c] = wa*oa[c] + wb*ob[c]
		}
	}
}

// Finalize normalises a partial into a FRESH attention output: O[i] /= L[i].
// Rows with L == 0 (no allowed keys) stay zero. The partial is unchanged;
// use FinalizeInPlace when the partial's buffer can be consumed.
func Finalize(p *Partial) *tensor.Tensor {
	out := p.O.Clone()
	finalizeRows(out, p.L)
	return out
}

// FinalizeInPlace normalises the partial's own output buffer and returns it,
// consuming the partial: p.O aliases the result and the partial must not be
// merged afterwards. This removes the [sq, d] clone per block merge that
// Finalize pays.
func FinalizeInPlace(p *Partial) *tensor.Tensor {
	out := p.O
	p.O = nil
	finalizeRows(out, p.L)
	return out
}

func finalizeRows(out *tensor.Tensor, l []float32) {
	for i := 0; i < out.Rows(); i++ {
		if l[i] == 0 {
			continue
		}
		inv := 1 / l[i]
		oi := out.Row(i)
		for c := range oi {
			oi[c] *= inv
		}
	}
}
