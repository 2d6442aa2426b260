package cp

import (
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/data"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// LocalRows returns local rank lr's rows of a full-sequence tensor (copy).
// The cp suites slice their sequential oracles with it.
func LocalRows(l Layout, full *tensor.Tensor, lr int) *tensor.Tensor {
	return packRows(full, l.LocalPositions(lr))
}

func TestShardingChunks(t *testing.T) {
	s := NewSharding(16, 2)
	if s.ChunkLen() != 4 {
		t.Fatalf("chunk len = %d", s.ChunkLen())
	}
	a, b := s.Chunks(0)
	if a != 0 || b != 3 {
		t.Fatalf("rank 0 chunks = %d,%d", a, b)
	}
	a, b = s.Chunks(1)
	if a != 1 || b != 2 {
		t.Fatalf("rank 1 chunks = %d,%d", a, b)
	}
}

func TestShardingPartitionsSequence(t *testing.T) {
	s := NewSharding(24, 3)
	seen := make(map[int]bool)
	for r := 0; r < 3; r++ {
		for _, p := range s.LocalPositions(r) {
			if seen[p] {
				t.Fatalf("position %d owned twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != 24 {
		t.Fatalf("positions covered: %d", len(seen))
	}
}

func TestCausalWorkBalanced(t *testing.T) {
	// The headline property of the 2×cp sharding (§4, Fig 7a).
	for _, cp := range []int{2, 4, 8} {
		s := NewSharding(64*cp, cp)
		counts := s.CausalWorkBalanced()
		for r := 1; r < cp; r++ {
			if counts[r] != counts[0] {
				t.Fatalf("cp=%d: unbalanced causal work %v", cp, counts)
			}
		}
	}
}

func TestNaiveContiguousShardingIsUnbalanced(t *testing.T) {
	// Contrast: contiguous sharding (rank i gets chunk i of cp chunks) has
	// the last rank doing ~(2cp−1)× the first rank's causal work.
	seq, cpn := 64, 4
	chunk := seq / cpn
	var counts []int
	for r := 0; r < cpn; r++ {
		pos := make([]int, chunk)
		for i := range pos {
			pos[i] = r*chunk + i
		}
		counts = append(counts, attention.AllowedPairs(attention.Causal{}, pos, seq))
	}
	if counts[cpn-1] <= 2*counts[0] {
		t.Fatalf("expected heavy imbalance, got %v", counts)
	}
}

func TestLocalRowsRoundTrip(t *testing.T) {
	s := NewSharding(8, 2)
	rng := rand.New(rand.NewSource(1))
	full := tensor.RandN(rng, 1, 8, 3)
	back := tensor.New(8, 3)
	for r := 0; r < 2; r++ {
		local := LocalRows(s, full, r)
		for i, p := range s.LocalPositions(r) {
			copy(back.Row(p), local.Row(i))
		}
	}
	if !tensor.BitwiseEqual(back, full) {
		t.Fatal("LocalRows scattered back by LocalPositions must reconstruct the full tensor")
	}
}

func newCPWorld(cpSize int) (*comm.World, *comm.Group) {
	w := comm.NewWorld(cpSize)
	ranks := make([]int, cpSize)
	for i := range ranks {
		ranks[i] = i
	}
	return w, w.NewGroup(ranks)
}

func TestGatherKVGlobalOrder(t *testing.T) {
	seq, cpSize := 8, 2
	s := NewSharding(seq, cpSize)
	w, g := newCPWorld(cpSize)
	rng := rand.New(rand.NewSource(2))
	fullK := tensor.RandN(rng, 1, seq, 3)
	fullV := tensor.RandN(rng, 1, seq, 3)
	results := make([]*tensor.Tensor, cpSize)
	if err := w.RunSPMD(func(rank int) {
		kv := NewKV(s, Plan{}, g, rank, 0)
		gk, gv := kv.GatherKV(LocalRows(s, fullK, rank), LocalRows(s, fullV, rank))
		if !tensor.BitwiseEqual(gv, fullV) {
			panic("gathered V out of order")
		}
		results[rank] = gk
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cpSize; r++ {
		if !tensor.BitwiseEqual(results[r], fullK) {
			t.Fatalf("rank %d gathered K differs from global order", r)
		}
	}
}

func TestCPAttentionMatchesSequential(t *testing.T) {
	// The centerpiece: a full GQA attention layer under CP must match the
	// sequential layer, forward and backward, for causal and document masks.
	seq, dim, nh, nkv, hd := 16, 16, 4, 2, 4
	rng := rand.New(rand.NewSource(3))
	layer := model.NewAttention("attn", dim, nh, nkv, hd, 10000, rng)
	x := tensor.RandN(rng, 0.5, seq, dim)
	dy := tensor.RandN(rng, 0.5, seq, dim)

	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{3, 3, 8, 2}, seq)},
	}
	for name, mask := range masks {
		envSeq := model.SeqEnv(seq, mask)
		want, c := layer.Forward(x, envSeq)
		model.ZeroGrads(layer.Params())
		wantDx := layer.Backward(c, dy)
		wantG := model.GradientVector(layer.Params())

		for _, cpSize := range []int{2, 4} {
			s := NewSharding(seq, cpSize)
			w, g := newCPWorld(cpSize)
			outs := make([]*tensor.Tensor, cpSize)
			dxs := make([]*tensor.Tensor, cpSize)
			grads := make([]*tensor.Tensor, cpSize)
			// Each CP rank has a replica of the layer weights.
			replicas := make([]*model.Attention, cpSize)
			for r := 0; r < cpSize; r++ {
				rr := rand.New(rand.NewSource(99))
				rep := model.NewAttention("attn", dim, nh, nkv, hd, 10000, rr)
				for i, p := range rep.Params() {
					copy(p.W.Data, layer.Params()[i].W.Data)
				}
				replicas[r] = rep
			}
			if err := w.RunSPMD(func(rank int) {
				env := Env(s, mask, g, rank)
				xl := LocalRows(s, x, rank)
				dyl := LocalRows(s, dy, rank)
				y, cc := replicas[rank].Forward(xl, env)
				outs[rank] = y
				dxs[rank] = replicas[rank].Backward(cc, dyl)
				grads[rank] = model.GradientVector(replicas[rank].Params())
			}); err != nil {
				t.Fatal(err)
			}
			// Outputs/input-grads: local rows of the sequential result.
			for r := 0; r < cpSize; r++ {
				if d := tensor.MaxDiff(outs[r], LocalRows(s, want, r)); d > 1e-4 {
					t.Fatalf("%s cp=%d rank %d fwd diff %v", name, cpSize, r, d)
				}
				if d := tensor.MaxDiff(dxs[r], LocalRows(s, wantDx, r)); d > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dx diff %v", name, cpSize, r, d)
				}
			}
			// Weight grads: sum over CP ranks equals sequential gradient
			// (CP extends DP for parameter communication, §4 "Integration").
			sum := grads[0].Clone()
			for r := 1; r < cpSize; r++ {
				sum.Add(grads[r])
			}
			if d := tensor.MaxDiff(sum, wantG); d > 1e-3 {
				t.Fatalf("%s cp=%d summed weight grads diff %v", name, cpSize, d)
			}
		}
	}
}

func TestCPBlockMatchesSequential(t *testing.T) {
	seq := 16
	cfg := model.Config{Vocab: 16, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 1, MaxSeq: seq, RopeBase: 10000}
	rng := rand.New(rand.NewSource(4))
	blk := model.NewBlock("b", cfg, rng)
	mask := attention.Document{DocID: attention.DocIDsFromLengths([]int{5, 6, 5}, seq)}
	x := tensor.RandN(rng, 0.5, seq, cfg.Dim)

	want, _ := blk.Forward(x, model.SeqEnv(seq, mask))

	cpSize := 2
	s := NewSharding(seq, cpSize)
	w, g := newCPWorld(cpSize)
	reps := make([]*model.Block, cpSize)
	for r := 0; r < cpSize; r++ {
		rep := model.NewBlock("b", cfg, rand.New(rand.NewSource(5)))
		for i, p := range rep.Params() {
			copy(p.W.Data, blk.Params()[i].W.Data)
		}
		reps[r] = rep
	}
	outs := make([]*tensor.Tensor, cpSize)
	if err := w.RunSPMD(func(rank int) {
		env := Env(s, mask, g, rank)
		y, _ := reps[rank].Forward(LocalRows(s, x, rank), env)
		outs[rank] = y
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cpSize; r++ {
		if d := tensor.MaxDiff(outs[r], LocalRows(s, want, r)); d > 1e-4 {
			t.Fatalf("rank %d block-under-CP diff %v", r, d)
		}
	}
}

// ringPlan routes the whole sequence, as one document, through the ring.
func ringPlan(seq int) Plan { return Plan{Seq: seq, DocStarts: []int{0}, Ring: []bool{true}} }

// attendVia runs one rank's single-head CP attention through the exchanger:
// K/V exchanged by kv's plan, one dense masked kernel over the assembled
// sequence, and the full-sequence dK/dV reduced back to the rank's rows.
// dO may be nil (forward only).
func attendVia(kv *KV, q, k, v, dO *tensor.Tensor, mask attention.Mask) (o, dq, dk, dv *tensor.Tensor) {
	qPos := kv.pos[kv.group.LocalRank(kv.rank)]
	fullK, fullV := kv.GatherKV(k, v)
	out := attention.Forward(q, fullK, fullV, mask, qPos, 0)
	if dO == nil {
		return out.O, nil, nil, nil
	}
	dq, dKFull, dVFull := attention.Backward(q, fullK, fullV, out.P, dO, mask, qPos, 0)
	dk, dv = kv.ReduceKVGrad(dKFull, dVFull)
	return out.O, dq, dk, dv
}

func TestRingMatchesAllGatherAndSequential(t *testing.T) {
	// The all-ring plan (the §7.2 comparator) must agree with the all-gather
	// plan bit for bit, and both with the sequential oracle, on a single head.
	seq, d := 24, 8
	rng := rand.New(rand.NewSource(6))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{7, 9, 8}, seq)},
	}
	for name, mask := range masks {
		want := attention.Forward(q, k, v, mask, attention.Iota(seq), 0).O
		for _, cpSize := range []int{2, 3} {
			s := NewSharding(seq, cpSize)
			w, g := newCPWorld(cpSize)
			ringOuts := make([]*tensor.Tensor, cpSize)
			agOuts := make([]*tensor.Tensor, cpSize)
			if err := w.RunSPMD(func(rank int) {
				ql, kl, vl := LocalRows(s, q, rank), LocalRows(s, k, rank), LocalRows(s, v, rank)
				ringOuts[rank], _, _, _ = attendVia(NewKV(s, ringPlan(seq), g, rank, 0), ql, kl, vl, nil, mask)
				agOuts[rank], _, _, _ = attendVia(NewKV(s, Plan{}, g, rank, 0), ql, kl, vl, nil, mask)
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < cpSize; r++ {
				if !tensor.BitwiseEqual(ringOuts[r], agOuts[r]) {
					t.Fatalf("%s cp=%d rank %d: ring plan differs from all-gather plan", name, cpSize, r)
				}
				if dd := tensor.MaxDiff(agOuts[r], LocalRows(s, want, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d diff vs sequential %v", name, cpSize, r, dd)
				}
			}
		}
	}
}

func TestLocalSampleKeepsFullDocIDs(t *testing.T) {
	gen := &data.Generator{Vocab: 32, Seq: 16, AvgDocLen: 4, Seed: 1}
	sample := gen.Sample(0)
	s := NewSharding(16, 2)
	ls := LocalSample(s, sample, 1)
	if len(ls.Tokens) != 8 || len(ls.Targets) != 8 {
		t.Fatal("local sample must have local token/target rows")
	}
	if len(ls.DocIDs) != 16 {
		t.Fatal("local sample must keep the full document-id vector (§4 Dataloaders)")
	}
	pos := s.LocalPositions(1)
	for i, p := range pos {
		if ls.Tokens[i] != sample.Tokens[p] {
			t.Fatal("local tokens must follow local positions")
		}
	}
}

func TestCPEndToEndModelGradients(t *testing.T) {
	// Full model under CP: summed parameter gradients across CP ranks equal
	// the sequential model's gradients on the same sample; combined loss
	// matches.
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 2, MaxSeq: 16, RopeBase: 10000}
	seq := 16
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: seq, AvgDocLen: 5, Seed: 3}
	sample := gen.Sample(0)
	mask := attention.Document{DocID: sample.DocIDs}

	ref := model.New(cfg, rand.New(rand.NewSource(7)))
	ref.ZeroGrads()
	refLoss, ctx := ref.ForwardLoss(sample.Tokens, sample.Targets, model.SeqEnv(seq, mask), 1)
	ref.Backward(ctx)
	refG := model.GradientVector(ref.Params())

	cpSize := 2
	s := NewSharding(seq, cpSize)
	w, g := newCPWorld(cpSize)
	reps := make([]*model.Model, cpSize)
	for r := 0; r < cpSize; r++ {
		reps[r] = model.New(cfg, rand.New(rand.NewSource(8)))
		ref.CopyWeightsTo(reps[r].Params())
	}
	// Count valid targets globally and locally for gradient scaling.
	totalValid := 0
	for _, tg := range sample.Targets {
		if tg >= 0 {
			totalValid++
		}
	}
	losses := make([]float64, cpSize)
	localValid := make([]int, cpSize)
	if err := w.RunSPMD(func(rank int) {
		ls := LocalSample(s, sample, rank)
		valid := 0
		for _, tg := range ls.Targets {
			if tg >= 0 {
				valid++
			}
		}
		localValid[rank] = valid
		env := Env(s, mask, g, rank)
		reps[rank].ZeroGrads()
		scale := float32(valid) / float32(totalValid)
		loss, cc := reps[rank].ForwardLoss(ls.Tokens, ls.Targets, env, scale)
		reps[rank].Backward(cc)
		losses[rank] = loss
	}); err != nil {
		t.Fatal(err)
	}

	// Combined loss: token-weighted mean of per-rank means.
	var combined float64
	for r := 0; r < cpSize; r++ {
		combined += losses[r] * float64(localValid[r]) / float64(totalValid)
	}
	if math.Abs(combined-refLoss) > 1e-5 {
		t.Fatalf("combined CP loss %v != sequential %v", combined, refLoss)
	}
	sum := model.GradientVector(reps[0].Params())
	sum.Add(model.GradientVector(reps[1].Params()))
	if d := tensor.MaxDiff(sum, refG); d > 1e-3 {
		t.Fatalf("summed CP grads differ from sequential by %v", d)
	}
}

func TestShardingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible sharding must panic")
		}
	}()
	NewSharding(10, 4)
}

func benchmarkCPAttention(b *testing.B, plan Plan) {
	seq, d, cpSize := 128, 32, 4
	s := NewSharding(seq, cpSize)
	w, g := newCPWorld(cpSize)
	rng := rand.New(rand.NewSource(1))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunSPMD(func(rank int) {
			attendVia(NewKV(s, plan, g, rank, 0), LocalRows(s, q, rank), LocalRows(s, k, rank), LocalRows(s, v, rank), nil, attention.Causal{})
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllGatherCPAttention(b *testing.B) { benchmarkCPAttention(b, Plan{}) }

func BenchmarkRingCPAttention(b *testing.B) { benchmarkCPAttention(b, ringPlan(128)) }

func TestRingBackwardMatchesOracle(t *testing.T) {
	// The all-ring plan's backward (local dQ, all-reduced dK/dV selected at
	// the rank's rows) must produce the same gradients as the naive oracle on
	// the full sequence, for causal and document masks.
	seq, d := 24, 8
	rng := rand.New(rand.NewSource(16))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	dO := tensor.RandN(rng, 0.5, seq, d)

	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{7, 9, 8}, seq)},
	}
	for name, mask := range masks {
		out := attention.Forward(q, k, v, mask, attention.Iota(seq), 0)
		wantDQ, wantDK, wantDV := attention.Backward(q, k, v, out.P, dO, mask, attention.Iota(seq), 0)

		for _, cpSize := range []int{2, 3} {
			s := NewSharding(seq, cpSize)
			w, g := newCPWorld(cpSize)
			dqs := make([]*tensor.Tensor, cpSize)
			dks := make([]*tensor.Tensor, cpSize)
			dvs := make([]*tensor.Tensor, cpSize)
			if err := w.RunSPMD(func(rank int) {
				_, dqs[rank], dks[rank], dvs[rank] = attendVia(NewKV(s, ringPlan(seq), g, rank, 0),
					LocalRows(s, q, rank), LocalRows(s, k, rank), LocalRows(s, v, rank), LocalRows(s, dO, rank), mask)
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < cpSize; r++ {
				if dd := tensor.MaxDiff(dqs[r], LocalRows(s, wantDQ, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dQ diff %v", name, cpSize, r, dd)
				}
				if dd := tensor.MaxDiff(dks[r], LocalRows(s, wantDK, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dK diff %v", name, cpSize, r, dd)
				}
				if dd := tensor.MaxDiff(dvs[r], LocalRows(s, wantDV, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dV diff %v", name, cpSize, r, dd)
				}
			}
		}
	}
}
