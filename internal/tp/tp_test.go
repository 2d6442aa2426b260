package tp

import (
	"errors"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// runTP executes body on tpSize ranks sharing one TP group and returns
// World.RunSPMD's error: a rank that panics fails the run, not the binary.
func runTP(tpSize int, body func(ctx *Ctx)) error {
	w := comm.NewWorld(tpSize)
	ranks := make([]int, tpSize)
	for i := range ranks {
		ranks[i] = i
	}
	g := w.NewGroup(ranks)
	return w.RunSPMD(func(rank int) {
		body(&Ctx{Group: g, Rank: rank})
	})
}

func TestColParallelForwardMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := model.NewLinear("w", 6, 8, rng)
	x := tensor.RandN(rng, 0.5, 4, 6)
	want, _ := seq.Forward(x, nil)
	for _, tpSize := range []int{2, 4} {
		outs := make([]*tensor.Tensor, tpSize)
		if err := runTP(tpSize, func(ctx *Ctx) {
			l := NewColParallelFromFull("w", seq.P.W, ctx, true)
			y, _ := l.Forward(x, nil)
			outs[ctx.Local()] = y
		}); err != nil {
			t.Fatal(err)
		}
		for r, y := range outs {
			if d := tensor.MaxDiff(y, want); d > 1e-5 {
				t.Fatalf("tp=%d rank %d: diff %v", tpSize, r, d)
			}
		}
	}
}

func TestColRowPairMatchesSequentialPair(t *testing.T) {
	// The Megatron pattern: col-parallel (no gather) then row-parallel must
	// equal two sequential matmuls, forward and backward.
	rng := rand.New(rand.NewSource(2))
	a := model.NewLinear("a", 6, 8, rng)
	b := model.NewLinear("b", 8, 6, rng)
	x := tensor.RandN(rng, 0.5, 4, 6)
	dy := tensor.RandN(rng, 0.5, 4, 6)

	h, ca := a.Forward(x, nil)
	want, cb := b.Forward(h, nil)
	a.P.ZeroGrad()
	b.P.ZeroGrad()
	wantDx := a.Backward(ca, b.Backward(cb, dy))

	tpSize := 2
	outs := make([]*tensor.Tensor, tpSize)
	dxs := make([]*tensor.Tensor, tpSize)
	gradsA := make([]*tensor.Tensor, tpSize)
	gradsB := make([]*tensor.Tensor, tpSize)
	if err := runTP(tpSize, func(ctx *Ctx) {
		la := NewColParallelFromFull("a", a.P.W, ctx, false)
		lb := NewRowParallelFromFull("b", b.P.W, ctx)
		hh, c1 := la.Forward(x, nil)
		y, c2 := lb.Forward(hh, nil)
		outs[ctx.Local()] = y
		dxs[ctx.Local()] = la.Backward(c1, lb.Backward(c2, dy))
		gradsA[ctx.Local()] = la.P.G
		gradsB[ctx.Local()] = lb.P.G
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tpSize; r++ {
		if d := tensor.MaxDiff(outs[r], want); d > 1e-5 {
			t.Fatalf("rank %d fwd diff %v", r, d)
		}
		if d := tensor.MaxDiff(dxs[r], wantDx); d > 1e-5 {
			t.Fatalf("rank %d dx diff %v", r, d)
		}
	}
	// Weight grads: shard of sequential gradient.
	wantGA := tensor.SplitCols(a.P.G, tpSize)
	wantGB := tensor.SplitRows(b.P.G, tpSize)
	for r := 0; r < tpSize; r++ {
		if d := tensor.MaxDiff(gradsA[r], wantGA[r]); d > 1e-5 {
			t.Fatalf("rank %d dWa diff %v", r, d)
		}
		if d := tensor.MaxDiff(gradsB[r], wantGB[r].Clone()); d > 1e-5 {
			t.Fatalf("rank %d dWb diff %v", r, d)
		}
	}
}

func TestShardAttentionMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim, nh, nkv, hd := 16, 4, 2, 4
	seqAttn := model.NewAttention("attn", dim, nh, nkv, hd, 10000, rng)
	env := model.SeqEnv(6, attention.Causal{})
	x := tensor.RandN(rng, 0.5, 6, dim)
	dy := tensor.RandN(rng, 0.5, 6, dim)

	want, c := seqAttn.Forward(x, env)
	model.ZeroGrads(seqAttn.Params())
	wantDx := seqAttn.Backward(c, dy)

	tpSize := 2
	outs := make([]*tensor.Tensor, tpSize)
	dxs := make([]*tensor.Tensor, tpSize)
	if err := runTP(tpSize, func(ctx *Ctx) {
		a := ShardAttention(seqAttn, ctx)
		y, cc := a.Forward(x, env)
		outs[ctx.Local()] = y
		dxs[ctx.Local()] = a.Backward(cc, dy)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tpSize; r++ {
		if d := tensor.MaxDiff(outs[r], want); d > 1e-4 {
			t.Fatalf("rank %d attention fwd diff %v", r, d)
		}
		if d := tensor.MaxDiff(dxs[r], wantDx); d > 1e-4 {
			t.Fatalf("rank %d attention dx diff %v", r, d)
		}
	}
}

func TestShardFFNMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seqFFN := model.NewFFN("ffn", 8, 16, rng)
	x := tensor.RandN(rng, 0.5, 5, 8)
	dy := tensor.RandN(rng, 0.5, 5, 8)
	want, c := seqFFN.Forward(x, nil)
	model.ZeroGrads(seqFFN.Params())
	wantDx := seqFFN.Backward(c, dy)

	for _, tpSize := range []int{2, 4} {
		outs := make([]*tensor.Tensor, tpSize)
		dxs := make([]*tensor.Tensor, tpSize)
		if err := runTP(tpSize, func(ctx *Ctx) {
			f := ShardFFN(seqFFN, ctx)
			y, cc := f.Forward(x, nil)
			outs[ctx.Local()] = y
			dxs[ctx.Local()] = f.Backward(cc, dy)
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tpSize; r++ {
			if d := tensor.MaxDiff(outs[r], want); d > 1e-4 {
				t.Fatalf("tp=%d rank %d ffn fwd diff %v", tpSize, r, d)
			}
			if d := tensor.MaxDiff(dxs[r], wantDx); d > 1e-4 {
				t.Fatalf("tp=%d rank %d ffn dx diff %v", tpSize, r, d)
			}
		}
	}
}

func TestShardBlockMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := model.Config{Vocab: 16, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 1, MaxSeq: 8, RopeBase: 10000}
	blk := model.NewBlock("b", cfg, rng)
	blk.Norm1.Eps = 1 // a shard must carry each norm's own Eps, not the default
	env := model.SeqEnv(6, attention.Causal{})
	x := tensor.RandN(rng, 0.5, 6, 16)
	dy := tensor.RandN(rng, 0.5, 6, 16)
	want, c := blk.Forward(x, env)
	model.ZeroGrads(blk.Params())
	wantDx := blk.Backward(c, dy)

	tpSize := 2
	outs := make([]*tensor.Tensor, tpSize)
	dxs := make([]*tensor.Tensor, tpSize)
	normGrads := make([]*tensor.Tensor, tpSize)
	if err := runTP(tpSize, func(ctx *Ctx) {
		b := ShardBlock(blk, ctx)
		y, cc := b.Forward(x, env)
		outs[ctx.Local()] = y
		dxs[ctx.Local()] = b.Backward(cc, dy)
		normGrads[ctx.Local()] = b.Norm1.P.G
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tpSize; r++ {
		if d := tensor.MaxDiff(outs[r], want); d > 1e-4 {
			t.Fatalf("rank %d block fwd diff %v", r, d)
		}
		if d := tensor.MaxDiff(dxs[r], wantDx); d > 1e-4 {
			t.Fatalf("rank %d block dx diff %v", r, d)
		}
		// Replicated norm gains see identical activations: identical grads.
		if d := tensor.MaxDiff(normGrads[r], blk.Norm1.P.G); d > 1e-4 {
			t.Fatalf("rank %d norm grad diff %v", r, d)
		}
	}
}

func TestShardBlockTrainingStepsStayAligned(t *testing.T) {
	// Several fwd/bwd/update cycles: TP replicas must remain consistent with
	// the sequential model (no drift from the all-reduces).
	rng := rand.New(rand.NewSource(6))
	cfg := model.Config{Vocab: 16, Dim: 8, Hidden: 16, NHeads: 2, NKVHeads: 2, NLayers: 1, MaxSeq: 8, RopeBase: 10000}
	blk := model.NewBlock("b", cfg, rng)
	env := model.SeqEnv(4, attention.Causal{})
	x := tensor.RandN(rng, 0.5, 4, 8)
	dy := tensor.RandN(rng, 0.5, 4, 8)

	// Sequential steps.
	seqOut := func() *tensor.Tensor {
		for i := 0; i < 3; i++ {
			model.ZeroGrads(blk.Params())
			y, c := blk.Forward(x, env)
			_ = y
			blk.Backward(c, dy)
			for _, p := range blk.Params() {
				p.W.AxpyFrom(-0.01, p.G)
			}
		}
		y, _ := blk.Forward(x, env)
		return y
	}

	// Reset by rebuilding with the same seed.
	rng2 := rand.New(rand.NewSource(6))
	blk2 := model.NewBlock("b", model.Config{Vocab: 16, Dim: 8, Hidden: 16, NHeads: 2, NKVHeads: 2, NLayers: 1, MaxSeq: 8, RopeBase: 10000}, rng2)
	_ = blk2
	want := seqOut()

	tpSize := 2
	outs := make([]*tensor.Tensor, tpSize)
	if err := runTP(tpSize, func(ctx *Ctx) {
		b := ShardBlock(blk2, ctx)
		for i := 0; i < 3; i++ {
			model.ZeroGrads(b.Params())
			_, c := b.Forward(x, env)
			b.Backward(c, dy)
			ReplicatedGradAllReduce(ctx, []*model.Param{b.Norm1.P, b.Norm2.P})
			for _, p := range b.Params() {
				p.W.AxpyFrom(-0.01, p.G)
			}
		}
		y, _ := b.Forward(x, env)
		outs[ctx.Local()] = y
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tpSize; r++ {
		if d := tensor.MaxDiff(outs[r], want); d > 1e-3 {
			t.Fatalf("rank %d after training diff %v", r, d)
		}
	}
}

func TestColParallelIndivisiblePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := tensor.RandN(rng, 1, 4, 6)
	err := runTP(4, func(ctx *Ctx) {
		NewColParallelFromFull("w", w, ctx, false)
	})
	var rp *comm.RankPanicError
	if !errors.As(err, &rp) {
		t.Fatalf("indivisible column shard must panic its rank: err = %v", err)
	}
}

func BenchmarkTPBlockForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := model.Config{Vocab: 16, Dim: 64, Hidden: 128, NHeads: 8, NKVHeads: 4, NLayers: 1, MaxSeq: 32, RopeBase: 10000}
	blk := model.NewBlock("b", cfg, rng)
	env := model.SeqEnv(32, attention.Causal{})
	x := tensor.RandN(rng, 0.5, 32, 64)
	tpSize := 2
	w := comm.NewWorld(tpSize)
	g := w.NewGroup([]int{0, 1})
	shards := make([]*model.Block, tpSize)
	for r := 0; r < tpSize; r++ {
		shards[r] = ShardBlock(blk, &Ctx{Group: g, Rank: r})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunSPMD(func(rank int) {
			shards[rank].Forward(x, env)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
