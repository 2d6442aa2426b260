package pp_test

// Executor integration tests live in an external test package because they
// drive the executor with internal/data batches, and data imports pp (the
// planned-batch packer simulates micro-batch orderings through
// pp.Schedule) — an import cycle for an in-package test.

import (
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/comm"
	"llama4d/internal/data"
	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/tensor"
)

// buildPipeline constructs pp executors sharing a world, splitting a fresh
// model initialised from seed across ranks.
func buildPipeline(cfg model.Config, sched *pp.Schedule, seed int64, counts []int) (*comm.World, []*pp.Executor, []*model.Model) {
	w := comm.NewWorld(sched.PP)
	ranks := make([]int, sched.PP)
	for i := range ranks {
		ranks[i] = i
	}
	g := w.NewGroup(ranks)
	execs := make([]*pp.Executor, sched.PP)
	models := make([]*model.Model, sched.PP)
	for r := 0; r < sched.PP; r++ {
		m := model.New(cfg, rand.New(rand.NewSource(seed)))
		models[r] = m
		execs[r] = &pp.Executor{
			World: w, Group: g, Rank: r, Sched: sched,
			Stages: pp.SplitModel(m, sched, r, counts),
		}
	}
	return w, execs, models
}

// runPPStep executes one pipeline step over samples (one sample per
// micro-batch) and returns the last-rank loss mean.
func runPPStep(tb testing.TB, execs []*pp.Executor, sched *pp.Schedule, samples []*model.Sample) float64 {
	mbs := make([]*pp.Microbatch, len(samples))
	for i, s := range samples {
		mbs[i] = &pp.Microbatch{
			Samples: []*model.Sample{s},
			Envs:    []*model.Env{data.Env(s)},
			Scale:   1 / float32(len(samples)),
		}
	}
	losses := make([]float64, sched.PP)
	counts := make([]int, sched.PP)
	if err := execs[0].World.RunSPMD(func(rank int) {
		losses[rank], counts[rank] = execs[rank].RunStep(mbs)
	}); err != nil {
		tb.Fatal(err)
	}
	var loss float64
	n := 0
	for r := range losses {
		loss += losses[r]
		n += counts[r]
	}
	return loss / float64(n)
}

func stageGradsByName(execs []*pp.Executor) map[string]*tensor.Tensor {
	grads := make(map[string]*tensor.Tensor)
	for _, e := range execs {
		for _, st := range e.Stages {
			for _, p := range st.Params() {
				grads[p.Name] = p.G
			}
		}
	}
	return grads
}

func TestExecutorMatchesSequentialBitwise(t *testing.T) {
	// The §6.2 claim made executable: PP micro-batching with FP32 gradient
	// accumulation reproduces the sequential reference BITWISE, because the
	// micro-batch accumulation order matches the sequential sample order.
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 21}

	for _, tc := range []struct {
		name  string
		sched *pp.Schedule
	}{
		{"flexible nc=pp (1F1B)", pp.NewFlexible(2, 2, 4, 2)},
		{"allFallB", pp.NewAllFwdAllBwd(2, 2, 4)},
		{"flexible nc>pp", pp.NewFlexible(2, 2, 4, 3)},
		{"flexible ragged nmb", pp.NewFlexible(2, 2, 5, 3)}, // nmb not multiple of pp
	} {
		nmb := tc.sched.NMB
		samples := gen.GlobalBatch(0, nmb)

		ref := model.New(cfg, rand.New(rand.NewSource(77)))
		ref.ZeroGrads()
		var refLoss float64
		for _, s := range samples {
			l, ctx := ref.ForwardLoss(s.Tokens, s.Targets, data.Env(s), 1/float32(nmb))
			ref.Backward(ctx)
			refLoss += l / float64(nmb)
		}

		counts := pp.StageLayerCounts(cfg.NLayers, tc.sched.Stages(), false)
		_, execs, _ := buildPipeline(cfg, tc.sched, 77, counts)
		loss := runPPStep(t, execs, tc.sched, samples)

		if math.Abs(loss-refLoss) > 1e-12 {
			t.Fatalf("%s: PP loss %v != sequential %v", tc.name, loss, refLoss)
		}
		grads := stageGradsByName(execs)
		for _, p := range ref.Params() {
			g, ok := grads[p.Name]
			if !ok {
				t.Fatalf("%s: no stage owns %s", tc.name, p.Name)
			}
			if !tensor.BitwiseEqual(g, p.G) {
				t.Fatalf("%s: gradient of %s not bitwise equal (maxdiff %v)",
					tc.name, p.Name, tensor.MaxDiff(g, p.G))
			}
		}
	}
}

func TestExecutorPeakMatchesScheduleAnalysis(t *testing.T) {
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 22}
	sched := pp.NewAllFwdAllBwd(2, 2, 4)
	counts := pp.StageLayerCounts(cfg.NLayers, sched.Stages(), false)
	_, execs, _ := buildPipeline(cfg, sched, 5, counts)
	runPPStep(t, execs, sched, gen.GlobalBatch(0, sched.NMB))
	peaks := sched.PeakInFlight()
	for r, e := range execs {
		if e.PeakLiveContexts != peaks[r] {
			t.Fatalf("rank %d measured peak %d != analytic %d", r, e.PeakLiveContexts, peaks[r])
		}
	}
}

func TestExecutorTrainingConverges(t *testing.T) {
	// Multiple PP steps of plain gradient descent reduce loss on a fixed batch.
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 23}
	sched := pp.NewFlexible(2, 2, 4, 2)
	counts := pp.StageLayerCounts(cfg.NLayers, sched.Stages(), false)
	_, execs, _ := buildPipeline(cfg, sched, 6, counts)
	samples := gen.GlobalBatch(0, sched.NMB)
	var first, last float64
	for step := 0; step < 25; step++ {
		for _, e := range execs {
			for _, st := range e.Stages {
				model.ZeroGrads(st.Params())
			}
		}
		loss := runPPStep(t, execs, sched, samples)
		for _, e := range execs {
			for _, st := range e.Stages {
				for _, p := range st.Params() {
					p.W.AxpyFrom(-0.3, p.G)
				}
			}
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last > first*0.8 {
		t.Fatalf("PP training did not reduce loss: %v -> %v", first, last)
	}
}

func TestSplitModelCoversAllParams(t *testing.T) {
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	sched := pp.NewFlexible(2, 2, 4, 2)
	counts := pp.StageLayerCounts(cfg.NLayers, sched.Stages(), false)
	owned := make(map[string]int)
	for r := 0; r < sched.PP; r++ {
		m := model.New(cfg, rand.New(rand.NewSource(1)))
		for _, st := range pp.SplitModel(m, sched, r, counts) {
			for _, p := range st.Params() {
				owned[p.Name]++
			}
		}
	}
	full := model.New(cfg, rand.New(rand.NewSource(1)))
	for _, p := range full.Params() {
		if owned[p.Name] != 1 {
			t.Fatalf("param %s owned %d times", p.Name, owned[p.Name])
		}
	}
}

func BenchmarkExecutorStep(b *testing.B) {
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 1}
	sched := pp.NewFlexible(2, 2, 4, 2)
	counts := pp.StageLayerCounts(cfg.NLayers, sched.Stages(), false)
	_, execs, _ := buildPipeline(cfg, sched, 1, counts)
	samples := gen.GlobalBatch(0, sched.NMB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPPStep(b, execs, sched, samples)
	}
}

func TestRunForwardEvaluationPass(t *testing.T) {
	// The forward-only pass must reproduce RunStep's loss exactly while
	// touching no gradients and retaining no contexts.
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: 16, AvgDocLen: 6, Seed: 91}
	sched := pp.NewFlexible(2, 2, 4, 2)
	counts := pp.StageLayerCounts(cfg.NLayers, sched.Stages(), false)
	_, execs, _ := buildPipeline(cfg, sched, 92, counts)
	samples := gen.GlobalBatch(0, sched.NMB)
	mbs := make([]*pp.Microbatch, len(samples))
	for i, s := range samples {
		mbs[i] = &pp.Microbatch{Samples: []*model.Sample{s}, Envs: []*model.Env{data.Env(s)}, Scale: 0.25}
	}

	trainLosses := make([]float64, sched.PP)
	if err := execs[0].World.RunSPMD(func(rank int) {
		trainLosses[rank], _ = execs[rank].RunStep(mbs)
	}); err != nil {
		t.Fatal(err)
	}
	// Reset grads, then evaluate.
	var gradSumAfterReset float32
	for _, e := range execs {
		for _, st := range e.Stages {
			model.ZeroGrads(st.Params())
		}
	}
	evalLosses := make([]float64, sched.PP)
	if err := execs[0].World.RunSPMD(func(rank int) {
		evalLosses[rank], _ = execs[rank].RunForward(mbs)
	}); err != nil {
		t.Fatal(err)
	}
	if evalLosses[0]+evalLosses[1] != trainLosses[0]+trainLosses[1] {
		t.Fatalf("eval loss %v != train loss %v", evalLosses, trainLosses)
	}
	for _, e := range execs {
		for _, st := range e.Stages {
			for _, p := range st.Params() {
				gradSumAfterReset += p.G.MaxAbs()
			}
		}
	}
	if gradSumAfterReset != 0 {
		t.Fatal("forward-only pass must not touch gradients")
	}
}
