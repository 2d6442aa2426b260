package fsdp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"llama4d/internal/comm"
	"llama4d/internal/data"
	"llama4d/internal/model"
	"llama4d/internal/optim"
	"llama4d/internal/tensor"
)

func fullGroup(n int) (*comm.World, *comm.Group) {
	w := comm.NewWorld(n)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return w, w.NewGroup(ranks)
}

// trainSequential runs `steps` full-batch steps on a fresh model and returns
// its final weights.
func trainSequential(t *testing.T, cfg model.Config, gen *data.Generator, gbs, steps int, lr float32) []*model.Param {
	t.Helper()
	m := model.New(cfg, rand.New(rand.NewSource(500)))
	opt := optim.NewAdamW(lr)
	flat := func() ([]float32, []float32) {
		var w, g []float32
		for _, p := range m.Params() {
			w = append(w, p.W.Data...)
			g = append(g, p.G.Data...)
		}
		return w, g
	}
	for step := 0; step < steps; step++ {
		m.ZeroGrads()
		batch := gen.GlobalBatch(int64(step), gbs)
		for _, s := range batch {
			_, ctx := m.ForwardLoss(s.Tokens, s.Targets, data.Env(s), 1/float32(gbs))
			m.Backward(ctx)
		}
		opt.Tick()
		w, g := flat()
		opt.Step(0, w, g)
		// Write updated weights back.
		off := 0
		for _, p := range m.Params() {
			copy(p.W.Data, w[off:off+p.W.Len()])
			off += p.W.Len()
		}
	}
	return m.Params()
}

// trainFSDP trains ndp replicas under the given ZeRO mode on the same data
// partitioning and returns rank 0's final weights.
func trainFSDP(t *testing.T, cfg model.Config, gen *data.Generator, gbs, steps, ndp int, mode Mode, lr float32) [][]*model.Param {
	t.Helper()
	w, g := fullGroup(ndp)
	models := make([]*model.Model, ndp)
	shards := make([]*Shard, ndp)
	init := model.New(cfg, rand.New(rand.NewSource(500)))
	for r := 0; r < ndp; r++ {
		models[r] = model.New(cfg, rand.New(rand.NewSource(1000+int64(r))))
		init.CopyWeightsTo(models[r].Params())
		shards[r] = New(g, r, mode, models[r].Params(), optim.NewAdamW(lr))
	}
	for step := 0; step < steps; step++ {
		if err := w.RunSPMD(func(rank int) {
			sh := shards[rank]
			if mode == ZeRO3 {
				sh.GatherParams()
			}
			batch := gen.DPBatch(int64(step), gbs, ndp, rank)
			for _, s := range batch {
				_, ctx := models[rank].ForwardLoss(s.Tokens, s.Targets, data.Env(s), 1/float32(gbs))
				models[rank].Backward(ctx)
				if mode == ZeRO2 || mode == ZeRO3 {
					sh.ReduceScatterGrads() // reshard gradients per backward
				}
			}
			sh.opt.Tick()
			sh.Step()
		}); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]*model.Param, ndp)
	for r := 0; r < ndp; r++ {
		if mode == ZeRO3 {
			// Materialise for comparison.
			if err := w.RunSPMD(func(rank int) { shards[rank].GatherParams() }); err != nil {
				t.Fatal(err)
			}
		}
		out[r] = models[r].Params()
	}
	return out
}

func testCfg() model.Config {
	return model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 2, MaxSeq: 16, RopeBase: 10000}
}

func TestFSDPMatchesSequentialAllModes(t *testing.T) {
	cfg := testCfg()
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 11}
	gbs, steps, ndp := 4, 3, 2
	ref := trainSequential(t, cfg, gen, gbs, steps, 1e-3)
	for _, mode := range []Mode{ZeRO1, ZeRO2, ZeRO3} {
		got := trainFSDP(t, cfg, gen, gbs, steps, ndp, mode, 1e-3)
		for r := 0; r < ndp; r++ {
			for i, p := range got[r] {
				if d := tensor.MaxDiff(p.W, ref[i].W); d > 1e-4 {
					t.Fatalf("%v rank %d param %s differs from sequential by %v", mode, r, p.Name, d)
				}
			}
		}
		// All replicas bitwise identical after all-gather.
		for i := range got[0] {
			if !tensor.BitwiseEqual(got[0][i].W, got[1][i].W) {
				t.Fatalf("%v replicas diverged on %s", mode, got[0][i].Name)
			}
		}
	}
}

func TestZeRO1vsZeRO2AccumulationOrder(t *testing.T) {
	// The §6.2 lesson, reproduced: ZeRO-1 accumulates micro-batches locally
	// before one reduce (grouping additions by rank), ZeRO-2 reduces every
	// micro-batch (grouping by micro-batch). The sums are mathematically
	// equal but floating-point addition is non-associative, so the two modes
	// agree only up to rounding — a numerics gap, not an implementation bug.
	cfg := testCfg()
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 12}
	a := trainFSDP(t, cfg, gen, 4, 2, 2, ZeRO1, 1e-3)
	b := trainFSDP(t, cfg, gen, 4, 2, 2, ZeRO2, 1e-3)
	for i := range a[0] {
		if d := tensor.MaxDiff(a[0][i].W, b[0][i].W); d > 1e-4 {
			t.Fatalf("ZeRO-1 vs ZeRO-2 on %s differ by %v: beyond rounding, suggests a bug", a[0][i].Name, d)
		}
	}
	// Re-running the SAME mode must be bitwise identical: the discriminator
	// between accumulation-order effects and implementation bugs.
	a2 := trainFSDP(t, cfg, gen, 4, 2, 2, ZeRO1, 1e-3)
	for i := range a[0] {
		if !tensor.BitwiseEqual(a[0][i].W, a2[0][i].W) {
			t.Fatalf("same-mode rerun diverged on %s: implementation bug", a[0][i].Name)
		}
	}
}

func TestReduceScatterGradsAccumulates(t *testing.T) {
	ndp := 2
	w, g := fullGroup(ndp)
	params := make([][]*model.Param, ndp)
	shards := make([]*Shard, ndp)
	for r := 0; r < ndp; r++ {
		p := model.NewParam("w", tensor.New(4))
		params[r] = []*model.Param{p}
		shards[r] = New(g, r, ZeRO2, params[r], optim.NewAdamW(0.1))
	}
	if err := w.RunSPMD(func(rank int) {
		params[rank][0].G.Fill(1)
		shards[rank].ReduceScatterGrads()
		params[rank][0].G.Fill(2)
		shards[rank].ReduceScatterGrads()
	}); err != nil {
		t.Fatal(err)
	}
	// Each shard entry: (1+1) + (2+2) = 6.
	for r := 0; r < ndp; r++ {
		for _, v := range shards[r].gradShard {
			if v != 6 {
				t.Fatalf("rank %d grad shard = %v", r, shards[r].gradShard)
			}
		}
		if params[r][0].G.MaxAbs() != 0 {
			t.Fatal("accumulators must be cleared after reduce-scatter")
		}
	}
}

func TestZeRO3ReleaseAndGather(t *testing.T) {
	ndp := 2
	w, g := fullGroup(ndp)
	ps := make([][]*model.Param, ndp)
	shards := make([]*Shard, ndp)
	rng := rand.New(rand.NewSource(13))
	orig := tensor.RandN(rng, 1, 8)
	for r := 0; r < ndp; r++ {
		p := model.NewParam("w", orig.Clone())
		ps[r] = []*model.Param{p}
		shards[r] = New(g, r, ZeRO3, ps[r], optim.NewAdamW(0.1))
	}
	if err := w.RunSPMD(func(rank int) {
		sh := shards[rank]
		sh.ReleaseParams()
		// After release, only the owner shard region is non-zero.
		nonzero := 0
		for _, v := range ps[rank][0].W.Data {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero > sh.ShardLen() {
			panic("release must drop non-owned regions")
		}
		sh.GatherParams()
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ndp; r++ {
		if !tensor.BitwiseEqual(ps[r][0].W, orig) {
			t.Fatalf("rank %d gather did not restore weights", r)
		}
	}
}

// MemoryBytes reports the per-rank steady-state memory of this unit under
// the shard's mode, in bytes, assuming 2-byte (BF16) parameters/gradients
// and optStateBytesPerParam bytes of optimizer state per parameter — the
// accounting behind the ZeRO rows of the paper's memory analysis, held to
// its ordering by TestMemoryBytesOrdering.
func (s *Shard) MemoryBytes(optStateBytesPerParam int) int64 {
	n := int64(s.w.Len())
	shard := int64(s.shardLen)
	var params, grads int64
	switch s.Mode {
	case ZeRO1:
		params, grads = 2*n, 2*n
	case ZeRO2:
		params, grads = 2*n, 2*shard
	case ZeRO3:
		params, grads = 2*shard, 2*shard
	}
	return params + grads + int64(optStateBytesPerParam)*shard
}

func TestMemoryBytesOrdering(t *testing.T) {
	// ZeRO-3 < ZeRO-2 < ZeRO-1 in steady-state bytes for n > 1 ranks.
	ndp := 4
	_, g := fullGroup(ndp)
	p := []*model.Param{model.NewParam("w", tensor.New(1024))}
	var prev int64 = 1 << 62
	for _, mode := range []Mode{ZeRO1, ZeRO2, ZeRO3} {
		sh := New(g, 0, mode, p, optim.NewAdamW(0.1))
		b := sh.MemoryBytes(8)
		if b >= prev {
			t.Fatalf("%v bytes %d not smaller than previous %d", mode, b, prev)
		}
		prev = b
	}
}

func TestPaddingHandlesIndivisibleParamCount(t *testing.T) {
	ndp := 4
	w, g := fullGroup(ndp)
	ps := make([][]*model.Param, ndp)
	shards := make([]*Shard, ndp)
	for r := 0; r < ndp; r++ {
		// 10 elements over 4 ranks: padded to 12.
		ps[r] = []*model.Param{model.NewParam("a", tensor.New(7)), model.NewParam("b", tensor.New(3))}
		shards[r] = New(g, r, ZeRO1, ps[r], optim.NewAdamW(0.5))
	}
	if shards[0].ShardLen() != 3 {
		t.Fatalf("shard len = %d, want 3", shards[0].ShardLen())
	}
	if err := w.RunSPMD(func(rank int) {
		ps[rank][0].G.Fill(1)
		ps[rank][1].G.Fill(2)
		shards[rank].Step()
	}); err != nil {
		t.Fatal(err)
	}
	// Unsharded reference: one AdamW step on the flat 10-element vector with
	// the rank-summed gradient (ndp·1 for a, ndp·2 for b). Shards straddle the
	// a/b boundary, and the padding must not leak into either parameter.
	want := make([]float32, 10)
	grad := make([]float32, 10)
	for i := range grad {
		grad[i] = float32(ndp)
		if i >= 7 {
			grad[i] = float32(2 * ndp)
		}
	}
	optim.NewAdamW(0.5).Step(0, want, grad)
	for r := 0; r < ndp; r++ {
		got := append(append([]float32(nil), ps[r][0].W.Data...), ps[r][1].W.Data...)
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("rank %d weight %d = %v, unsharded AdamW gives %v", r, i, v, want[i])
			}
		}
	}
}

// TestFlatViewsStayOutOfThePool: every managed W and G is a view into the
// shard's flat buffers, so Put must refuse each — the last parameter's
// included, whose slice ends at the buffer's end (len == cap) and would pass
// the pool's len != cap guard on its own.
func TestFlatViewsStayOutOfThePool(t *testing.T) {
	_, g := fullGroup(2)
	ps := []*model.Param{model.NewParam("a", tensor.New(3)), model.NewParam("b", tensor.New(1, 5))}
	New(g, 0, ZeRO1, ps, optim.NewAdamW(0.1))
	last := ps[len(ps)-1]
	if len(last.W.Data) != cap(last.W.Data) || len(last.G.Data) != cap(last.G.Data) {
		t.Fatal("the last parameter must end at its flat buffer's end for this test to bite")
	}
	pool := tensor.NewPool()
	for _, p := range ps {
		pool.Put(p.W, p.G)
	}
	if st := pool.Stats(); st.Rejects != int64(2*len(ps)) || st.Puts != 0 {
		t.Fatalf("pool stats %+v: want all %d parameter views rejected", st, 2*len(ps))
	}
}

func TestNewPanicsOnDuplicateParam(t *testing.T) {
	_, g := fullGroup(1)
	p := model.NewParam("w", tensor.New(4))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"w" appears twice`) {
			t.Fatalf("New with a repeated parameter: recovered %v, want a panic naming it", r)
		}
	}()
	New(g, 0, ZeRO1, []*model.Param{p, p}, optim.NewAdamW(0.1))
}

func TestModeString(t *testing.T) {
	if ZeRO1.String() != "ZeRO-1" || ZeRO3.String() != "ZeRO-3" {
		t.Fatal("mode strings wrong")
	}
}

func BenchmarkZeRO1Step(b *testing.B) {
	ndp := 4
	w, g := fullGroup(ndp)
	ps := make([][]*model.Param, ndp)
	shards := make([]*Shard, ndp)
	for r := 0; r < ndp; r++ {
		ps[r] = []*model.Param{model.NewParam("w", tensor.New(1<<14))}
		shards[r] = New(g, r, ZeRO1, ps[r], optim.NewAdamW(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunSPMD(func(rank int) {
			ps[rank][0].G.Fill(0.001)
			shards[rank].Step()
		}); err != nil {
			b.Fatal(err)
		}
	}
}
