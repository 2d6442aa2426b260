package model_test

import (
	"fmt"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
	"llama4d/internal/tp"
)

// onRanks returns a runner that calls body once per TP rank with the block
// that rank computes on: the sequential block itself at degree 1, its
// tp.ShardBlock shard otherwise. The shards are built here, once, so a
// caller can bracket a run with pool statistics.
func onRanks(t *testing.T, blk *model.Block, degree int) func(body func(rank int, b *model.Block)) {
	t.Helper()
	if degree == 1 {
		return func(body func(int, *model.Block)) { body(0, blk) }
	}
	world := comm.NewWorld(degree)
	ranks := make([]int, degree)
	shards := make([]*model.Block, degree)
	for i := range ranks {
		ranks[i] = i
	}
	group := world.NewGroup(ranks)
	for i := range shards {
		shards[i] = tp.ShardBlock(blk, &tp.Ctx{Group: group, Rank: i})
	}
	return func(body func(int, *model.Block)) {
		t.Helper()
		if err := world.RunSPMD(func(rank int) { body(rank, shards[rank]) }); err != nil {
			t.Fatalf("tp world: %v", err)
		}
	}
}

// TestForwardOnlyMatchesForward is the contract serving stands on: the
// forward-only block entry emits the training Forward's bits under every
// mask × head split × TP degree, and — unlike Forward, whose intermediates
// wait for Backward — hands every pooled buffer it took back to the arena.
func TestForwardOnlyMatchesForward(t *testing.T) {
	const seq = 24
	docIDs := make([]int, seq)
	for i := range docIDs {
		docIDs[i] = i / 9 // documents of 9, 9 and 6 tokens
	}
	masks := map[string]attention.Mask{"causal": attention.Causal{}, "document": attention.Document{DocID: docIDs}}
	for maskName, mask := range masks {
		for _, nkv := range []int{4, 2} { // MHA, GQA
			for _, degree := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/kv%d/tp%d", maskName, nkv, degree), func(t *testing.T) {
					cfg := model.Config{Vocab: 16, Dim: 32, Hidden: 48, NHeads: 4, NKVHeads: nkv, NLayers: 1, MaxSeq: seq, RopeBase: 10000}
					rng := rand.New(rand.NewSource(11))
					blk := model.NewBlock("b", cfg, rng)
					blk.Norm1.Eps = 1e-3
					x := tensor.RandN(rng, 0.5, seq, cfg.Dim)
					env := model.SeqEnv(seq, mask)

					run := onRanks(t, blk, degree)
					want := make([]*tensor.Tensor, degree)
					run(func(rank int, b *model.Block) {
						want[rank], _ = b.Forward(x, env)
					})

					got := make([]*tensor.Tensor, degree)
					hooked := make([]int, degree)
					before := tensor.DefaultPoolStats()
					run(func(rank int, b *model.Block) {
						got[rank] = x.Clone()
						b.ForwardOnly(got[rank], env.QPos, mask, env.QPos, func(k, v *tensor.Tensor) {
							if k.Rows() != seq || v.Rows() != seq || k.Cols() != nkv/degree*cfg.HeadDim() {
								panic(fmt.Sprintf("kv hook saw k%v v%v", k.Shape, v.Shape))
							}
							hooked[rank]++
						})
					})
					after := tensor.DefaultPoolStats()
					for rank := range got {
						if !tensor.BitwiseEqual(got[rank], want[rank]) {
							t.Fatalf("rank %d: forward-only output differs from Forward", rank)
						}
						if hooked[rank] != 1 {
							t.Fatalf("rank %d: kv hook ran %d times, want 1", rank, hooked[rank])
						}
						tensor.Put(got[rank])
					}
					// Still out: got itself, and under TP the shared sum of each
					// of the block's two all-reduces, which comm never pools back.
					out := int64(degree)
					if degree > 1 {
						out += 2
					}
					if live := (after.Gets - after.Puts) - (before.Gets - before.Puts); live != out {
						t.Fatalf("forward-only pass left %d pooled buffers unreturned", live-out)
					}
				})
			}
		}
	}
}

// TestForwardOnlyPackedPositions covers rotation positions that differ from
// mask positions: two sequences packed into one batch under a Document mask,
// each row rotated by its position within its own sequence, must reproduce
// the two single-sequence causal runs row for row — K/V hook included.
func TestForwardOnlyPackedPositions(t *testing.T) {
	cfg := model.Config{Vocab: 16, Dim: 32, Hidden: 48, NHeads: 4, NKVHeads: 2, NLayers: 1, MaxSeq: 16, RopeBase: 10000}
	rng := rand.New(rand.NewSource(13))
	blk := model.NewBlock("b", cfg, rng)
	lens := []int{5, 7}
	packed := tensor.RandN(rng, 0.5, lens[0]+lens[1], cfg.Dim)

	var ropePos, docIDs []int
	for d, n := range lens {
		ropePos = append(ropePos, attention.Iota(n)...)
		for i := 0; i < n; i++ {
			docIDs = append(docIDs, d)
		}
	}
	var packedK *tensor.Tensor
	got := packed.Clone()
	blk.ForwardOnly(got, ropePos, attention.Document{DocID: docIDs}, attention.Iota(len(docIDs)),
		func(k, _ *tensor.Tensor) { packedK = k.Clone() })

	off := 0
	for d, n := range lens {
		pos := attention.Iota(n)
		var aloneK *tensor.Tensor
		alone := packed.RowSlice(off, off+n).Clone()
		blk.ForwardOnly(alone, pos, attention.Causal{}, pos,
			func(k, _ *tensor.Tensor) { aloneK = k.Clone() })
		if !tensor.BitwiseEqual(got.RowSlice(off, off+n), alone) {
			t.Fatalf("sequence %d: packed rows differ from the single-sequence run", d)
		}
		if !tensor.BitwiseEqual(packedK.RowSlice(off, off+n), aloneK) {
			t.Fatalf("sequence %d: packed post-RoPE K differs from the single-sequence run", d)
		}
		off += n
	}
}
