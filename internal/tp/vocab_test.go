package tp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

func TestVocabParallelEmbeddingMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := model.NewEmbedding("embed", 16, 8, rng)
	tokens := []int{0, 3, 7, 15, 3, 8}
	want, wc := seq.Forward(tokens)
	rng2 := rand.New(rand.NewSource(2))
	dy := tensor.RandN(rng2, 1, len(tokens), 8)
	seq.P.ZeroGrad()
	seq.Backward(wc, dy)

	for _, tpSize := range []int{2, 4} {
		outs := make([]*tensor.Tensor, tpSize)
		grads := make([]*tensor.Tensor, tpSize)
		if err := runTP(tpSize, func(ctx *Ctx) {
			e := NewVocabParallelEmbeddingFromFull("embed", seq.P.W, ctx)
			y, c := e.Forward(tokens)
			outs[ctx.Local()] = y
			e.Backward(c, dy)
			grads[ctx.Local()] = e.P.G
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tpSize; r++ {
			if d := tensor.MaxDiff(outs[r], want); d > 1e-5 {
				t.Fatalf("tp=%d rank %d embed fwd diff %v", tpSize, r, d)
			}
		}
		// Concatenated gradient shards equal the sequential gradient.
		full := tensor.ConcatRows(grads...)
		if d := tensor.MaxDiff(full, seq.P.G); d > 1e-5 {
			t.Fatalf("tp=%d embed grads diff %v", tpSize, d)
		}
	}
}

func TestVocabParallelHeadMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim, vocab := 8, 16
	seqHead := model.NewHead("head", dim, vocab, rng)
	x := tensor.RandN(rng, 0.5, 5, dim)
	targets := []int{1, 0, 15, 7, -1}

	wantLoss, wc := seqHead.ForwardLoss(x, targets, 1, nil)
	model.ZeroGrads(seqHead.Params())
	wantDx := seqHead.BackwardLoss(wc)
	wantProjG := model.ParamByName(seqHead.Params(), "head.proj").G
	wantNormG := model.ParamByName(seqHead.Params(), "head.norm").G

	for _, tpSize := range []int{2, 4} {
		losses := make([]float64, tpSize)
		dxs := make([]*tensor.Tensor, tpSize)
		projGs := make([]*tensor.Tensor, tpSize)
		normGs := make([]*tensor.Tensor, tpSize)
		if err := runTP(tpSize, func(ctx *Ctx) {
			h := NewVocabParallelHeadFromFull(seqHead, ctx)
			loss, c := h.ForwardLoss(x, targets, 1, nil)
			losses[ctx.Local()] = loss
			dxs[ctx.Local()] = h.BackwardLoss(c)
			projGs[ctx.Local()] = h.Proj.G
			normGs[ctx.Local()] = h.Norm.P.G
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tpSize; r++ {
			if math.Abs(losses[r]-wantLoss) > 1e-5 {
				t.Fatalf("tp=%d rank %d loss %v != %v", tpSize, r, losses[r], wantLoss)
			}
			if d := tensor.MaxDiff(dxs[r], wantDx); d > 1e-4 {
				t.Fatalf("tp=%d rank %d dx diff %v", tpSize, r, d)
			}
			if d := tensor.MaxDiff(normGs[r], wantNormG); d > 1e-4 {
				t.Fatalf("tp=%d rank %d norm grad diff %v", tpSize, r, d)
			}
		}
		full := tensor.ConcatCols(projGs...)
		if d := tensor.MaxDiff(full, wantProjG); d > 1e-4 {
			t.Fatalf("tp=%d proj grads diff %v", tpSize, d)
		}
	}
}

// TestVocabParallelHeadProbsBitwise holds the vocab-parallel head's
// probabilities Float32bits-equal (NaN-ness for NaN) to a scalar single-rank
// definition at tp = 1 and 2: logits from the full projection, the row max,
// one math.Exp call per element, each rank slice's exps summed in
// increasing column, the slice sums added in rank order (two terms commute
// exactly, so the all-reduce's order cannot show), then one multiply by the
// reciprocal. Each input row is one-hot, so MatMul's zero skip makes logit
// row i the projection's row i times one positive factor, and the rows plant
// NaN, +Inf (every finite exp +0, the +Inf entry NaN), a row of all −Inf,
// −Inf beside finite values, denormals and gaps to the max past −87.3 and
// −104. Each rank's slice of 21 columns runs two vector blocks and a tail.
func TestVocabParallelHeadProbsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dim, vocab := 8, 42
	seqHead := model.NewHead("head", dim, vocab, rng)
	w := seqHead.Proj.P.W
	inf := float32(math.Inf(1))
	plant := map[int][]float32{
		1: {float32(math.NaN())},
		2: {inf},
		4: {math.Float32frombits(1), -math.Float32frombits(0x7fffff), 0, float32(math.Copysign(0, -1))},
		5: {0, -30, -31, -36, -37, -42, -60, -400},
		6: {-inf, -inf, 1},
		7: {30, 31.3, 35},
	}
	for i, vals := range plant {
		for j, v := range vals {
			w.Set(i, 5*j%vocab, v)
		}
	}
	for j := 0; j < vocab; j++ {
		w.Set(3, j, -inf)
	}
	x := tensor.New(dim, dim)
	for i := 0; i < dim; i++ {
		x.Set(i, i, 1)
	}
	targets := make([]int, dim)

	normed, _ := seqHead.Norm.Forward(x, nil)
	logits := tensor.MatMul(normed, w)
	for _, tpSize := range []int{1, 2} {
		want := logits.Clone()
		per := vocab / tpSize
		for i := 0; i < dim; i++ {
			row := want.Row(i)
			m := float32(math.Inf(-1))
			for _, v := range row {
				if v > m {
					m = v
				}
			}
			var sum float32
			for r := 0; r < tpSize; r++ {
				var s float32
				for j := r * per; j < (r+1)*per; j++ {
					row[j] = float32(math.Exp(float64(row[j] - m)))
					s += row[j]
				}
				sum += s
			}
			inv := 1 / sum
			for j := range row {
				row[j] *= inv
			}
		}
		probs := make([]*tensor.Tensor, tpSize)
		if err := runTP(tpSize, func(ctx *Ctx) {
			h := NewVocabParallelHeadFromFull(seqHead, ctx)
			_, c := h.ForwardLoss(x, targets, 1, nil)
			probs[ctx.Local()] = c.(*vocabHeadCtx).probs
		}); err != nil {
			t.Fatal(err)
		}
		got := tensor.ConcatCols(probs...)
		for k, g := range got.Data {
			if wv := want.Data[k]; math.Float32bits(g) != math.Float32bits(wv) && !(g != g && wv != wv) {
				t.Fatalf("tp=%d: p[%d][%d] = %v (%#x), scalar %v (%#x) from logit %v",
					tpSize, k/vocab, k%vocab, g, math.Float32bits(g), wv, math.Float32bits(wv), logits.Data[k])
			}
		}
	}
}

func TestVocabParallelHeadIgnoredTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seqHead := model.NewHead("head", 8, 16, rng)
	x := tensor.RandN(rng, 0.5, 3, 8)
	targets := []int{-1, -1, 2}
	wantLoss, _ := seqHead.ForwardLoss(x, targets, 1, nil)
	tpSize := 2
	losses := make([]float64, tpSize)
	if err := runTP(tpSize, func(ctx *Ctx) {
		h := NewVocabParallelHeadFromFull(seqHead, ctx)
		losses[ctx.Local()], _ = h.ForwardLoss(x, targets, 1, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(losses[0]-wantLoss) > 1e-5 {
		t.Fatalf("masked-target loss %v != %v", losses[0], wantLoss)
	}
}

func TestVocabParallelShardingPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := tensor.RandN(rng, 1, 15, 4) // vocab 15 not divisible by 2
	err := runTP(2, func(ctx *Ctx) {
		NewVocabParallelEmbeddingFromFull("e", w, ctx)
	})
	var rp *comm.RankPanicError
	if !errors.As(err, &rp) {
		t.Fatalf("indivisible vocab must panic its rank: err = %v", err)
	}
}

func TestVocabParallelEmbeddingGradOnlyOwnedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq := model.NewEmbedding("e", 8, 4, rng)
	tokens := []int{0, 1} // both owned by rank 0 when tp=2
	dy := tensor.New(2, 4)
	dy.Fill(1)
	grads := make([]*tensor.Tensor, 2)
	if err := runTP(2, func(ctx *Ctx) {
		e := NewVocabParallelEmbeddingFromFull("e", seq.P.W, ctx)
		_, c := e.Forward(tokens)
		e.Backward(c, dy)
		grads[ctx.Local()] = e.P.G
	}); err != nil {
		t.Fatal(err)
	}
	if grads[0].MaxAbs() == 0 {
		t.Fatal("owner rank must accumulate gradients")
	}
	if grads[1].MaxAbs() != 0 {
		t.Fatal("non-owner rank must not accumulate gradients")
	}
}
