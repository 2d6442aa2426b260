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
