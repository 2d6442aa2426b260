package debug

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"llama4d/internal/attention"
	"llama4d/internal/core"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
	"llama4d/internal/trace"
)

func TestFindSlowRankPaperExample(t *testing.T) {
	// Fig 8's scenario: cp=2, tp=4 on 8 GPUs; rank 2's TP collectives look
	// short (it is the group straggler) but the true bottleneck is its CP
	// peer, rank 6.
	topo := core.Topology{TP: 4, CP: 2, PP: 1, DP: 1}
	tr := SyntheticTrace(topo, 6, 1.0, 1.5, 3)
	loc := &Localizer{Topo: topo, T: tr}
	got, path := loc.FindSlowRank()
	if got != 6 {
		t.Fatalf("localised rank %d, want 6\n%s", got, Report(got, path))
	}
}

func TestFindSlowRankAcrossTopologies(t *testing.T) {
	for _, topo := range []core.Topology{
		{TP: 2, CP: 2, PP: 2, DP: 2},
		{TP: 8, CP: 1, PP: 2, DP: 1},
		{TP: 1, CP: 1, PP: 4, DP: 4},
	} {
		for _, slow := range []int{0, topo.World() / 2, topo.World() - 1} {
			tr := SyntheticTrace(topo, slow, 1.0, 2.0, 2)
			loc := &Localizer{Topo: topo, T: tr}
			if got, path := loc.FindSlowRank(); got != slow {
				t.Fatalf("topo %+v: localised %d, want %d\n%s", topo, got, slow, Report(got, path))
			}
		}
	}
}

func TestSlowRankHasShortestComm(t *testing.T) {
	// The signature the algorithm keys on: within each group, the straggler
	// shows the least communication time.
	topo := core.Topology{TP: 4, CP: 2, PP: 1, DP: 1}
	slow := 5
	tr := SyntheticTrace(topo, slow, 1.0, 1.5, 1)
	group := topo.TPGroupRanks(slow)
	for _, m := range group {
		if m == slow {
			continue
		}
		if tr.TotalDur(m, trace.Comm, "tp") <= tr.TotalDur(slow, trace.Comm, "tp") {
			t.Fatalf("rank %d tp comm not longer than straggler's", m)
		}
	}
}

func TestReportFormat(t *testing.T) {
	topo := core.Topology{TP: 2, CP: 1, PP: 1, DP: 1}
	tr := SyntheticTrace(topo, 1, 1, 2, 1)
	loc := &Localizer{Topo: topo, T: tr}
	r, path := loc.FindSlowRank()
	out := Report(r, path)
	if !strings.Contains(out, "slow rank: 1") || !strings.Contains(out, "tp") {
		t.Fatalf("report malformed:\n%s", out)
	}
}

func TestTraceChromeExportAndASCII(t *testing.T) {
	topo := core.Topology{TP: 2, CP: 1, PP: 1, DP: 1}
	tr := SyntheticTrace(topo, 0, 1, 2, 1)
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Fatal("chrome JSON missing traceEvents")
	}
	if line := tr.ASCIITimeline(0, 40); !strings.Contains(line, "#") {
		t.Fatalf("ascii timeline missing compute: %q", line)
	}
}

func TestAccumulationStudyLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := make([]float32, 1<<14)
	for i := range values {
		// Same-sign magnitudes (like squared-gradient statistics): the
		// worst case for a low-precision accumulator that stalls once the
		// running sum dwarfs the increments.
		v := rng.NormFloat64() * 1e-2
		if v < 0 {
			v = -v
		}
		values[i] = float32(v)
	}
	s := RunAccumulationStudy(values, []int{2, 8, 64})
	// BF16 accumulation must be far worse than FP32 — the reason the paper
	// mandates FP32 gradient accumulation.
	if s.BF16Err < 10*s.FP32Err {
		t.Fatalf("BF16 error %v not clearly above FP32 %v", s.BF16Err, s.FP32Err)
	}
	// Different chunk orders disagree (non-associativity) but only slightly.
	if s.OrderGap == 0 {
		t.Skip("chunk orders happened to agree bitwise")
	}
	for n, e := range s.ChunkErrs {
		if e > 1e-3 {
			t.Fatalf("chunking %d relative error %v too large", n, e)
		}
	}
}

func TestCriticalBuffersFindsSensitiveGradients(t *testing.T) {
	cfg := model.TinyConfig()
	m := model.New(cfg, rand.New(rand.NewSource(3)))
	env := model.SeqEnv(16, attention.Causal{})
	var batches [][2][]int
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		tokens := make([]int, 16)
		targets := make([]int, 16)
		for j := range tokens {
			tokens[j] = rng.Intn(cfg.Vocab)
			targets[j] = rng.Intn(cfg.Vocab)
		}
		batches = append(batches, [2][]int{tokens, targets})
	}
	sens := CriticalBuffers(m, batches, env)
	if len(sens) != len(m.Params()) {
		t.Fatalf("got %d sensitivities for %d params", len(sens), len(m.Params()))
	}
	// Sorted descending, and BF16 accumulation must hurt somewhere.
	for i := 1; i < len(sens); i++ {
		if sens[i].RelErr > sens[i-1].RelErr {
			t.Fatal("sensitivities not sorted")
		}
	}
	if sens[0].RelErr <= 0 {
		t.Fatal("expected at least one buffer sensitive to BF16 accumulation")
	}
	if sens[0].RelErr > 0.5 {
		t.Fatalf("suspiciously large sensitivity %v", sens[0].RelErr)
	}
}

func BenchmarkFindSlowRank(b *testing.B) {
	topo := core.Topology{TP: 8, CP: 2, PP: 4, DP: 4}
	tr := SyntheticTrace(topo, 100, 1, 2, 2)
	loc := &Localizer{Topo: topo, T: tr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.FindSlowRank()
	}
}

// slowLayer wraps a model layer with an artificial delay — the injected
// "faulty GPU" of the end-to-end localisation test.
type slowLayer struct {
	inner model.Layer
	delay time.Duration
}

func (s *slowLayer) Forward(x *tensor.Tensor, env *model.Env) (*tensor.Tensor, any) {
	time.Sleep(s.delay)
	return s.inner.Forward(x, env)
}

func (s *slowLayer) Backward(ctx any, dy *tensor.Tensor) *tensor.Tensor {
	time.Sleep(s.delay)
	return s.inner.Backward(ctx, dy)
}

func (s *slowLayer) Params() []*model.Param { return s.inner.Params() }

func TestLocaliseSlowRankInLiveCluster(t *testing.T) {
	// End-to-end §6.1: run a REAL 4-rank (tp=2 × cp=2) training cluster with
	// one artificially slow GPU, record actual collective wait times through
	// the comm Recorder, and localise the straggler from the live trace.
	cfg := core.Config{
		Model: model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2,
			NLayers: 2, MaxSeq: 16, RopeBase: 10000},
		Topo: core.Topology{TP: 2, CP: 2, PP: 1, DP: 1},
		V:    1, NMB: 2, NC: 2,
		ZeRO: fsdp.ZeRO1, Seq: 16, GBS: 2, LR: 1e-3, UseDocMask: true, Seed: 13,
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	collector := &trace.Collector{}
	cl.World.Recorder = collector

	const slow = 3
	st := cl.Ranks[slow].Exec.Stages[0]
	st.Layers[0] = &slowLayer{inner: st.Layers[0], delay: 2 * time.Millisecond}

	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 14}
	for step := int64(0); step < 3; step++ {
		cl.Step(gen, step)
	}

	loc := &Localizer{Topo: cfg.Topo, T: collector.Snapshot()}
	got, path := loc.FindSlowRank()
	if got != slow {
		t.Fatalf("live localisation found rank %d, want %d\n%s", got, slow, Report(got, path))
	}
}
