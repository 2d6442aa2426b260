package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/optim"
	"llama4d/internal/tensor"
)

// ParamsByName gathers one full copy of the model's parameters from the
// cluster (TP shards reassembled, stages collected), for comparison against
// a sequential reference. Only valid when TP == 1; with TP > 1 use
// GradOrWeightShardsFor to compare shard-wise.
func (cl *Cluster) ParamsByName() map[string]*tensor.Tensor {
	if cl.Cfg.Topo.TP != 1 {
		panic("core: ParamsByName requires TP == 1 (shards are partial)")
	}
	out := make(map[string]*tensor.Tensor)
	// DP/CP replicas are identical; take dp=0, cp=0 ranks.
	for _, r := range cl.Ranks {
		if r.Coord.DP != 0 || r.Coord.CP != 0 || r.Coord.TP != 0 {
			continue
		}
		for _, st := range r.Exec.Stages {
			for _, p := range st.Params() {
				out[p.Name] = p.W
			}
		}
	}
	return out
}

func TestTopologyCoordsRoundTrip(t *testing.T) {
	topo := Topology{TP: 2, CP: 3, PP: 4, DP: 5}
	if topo.World() != 120 {
		t.Fatalf("world = %d", topo.World())
	}
	for r := 0; r < topo.World(); r++ {
		if got := topo.Rank(topo.Coords(r)); got != r {
			t.Fatalf("rank %d round-trips to %d", r, got)
		}
	}
}

func TestTopologyTPInnermost(t *testing.T) {
	// §5.2: TP ranks must be adjacent global ranks (same host / NVLink).
	topo := Topology{TP: 8, CP: 2, PP: 2, DP: 2}
	g := topo.TPGroupRanks(0)
	for i, r := range g {
		if r != i {
			t.Fatalf("TP group of rank 0 = %v, want 0..7", g)
		}
	}
	// DP is outermost: stride is world/dp.
	d := topo.DPGroupRanks(0)
	if d[1]-d[0] != topo.TP*topo.CP*topo.PP {
		t.Fatalf("DP stride = %d", d[1]-d[0])
	}
}

func TestTopologyGroupsPartitionWorld(t *testing.T) {
	topo := Topology{TP: 2, CP: 2, PP: 2, DP: 2}
	for _, groupOf := range []func(int) []int{
		topo.TPGroupRanks, topo.CPGroupRanks, topo.PPGroupRanks, topo.DPGroupRanks, topo.FSDPGroupRanks,
	} {
		seen := make(map[int]int)
		for r := 0; r < topo.World(); r++ {
			for _, m := range groupOf(r) {
				if m == r {
					seen[r]++
				}
			}
		}
		for r := 0; r < topo.World(); r++ {
			if seen[r] != 1 {
				t.Fatalf("rank %d appears %d times in its own group", r, seen[r])
			}
		}
	}
}

func TestFSDPGroupCombinesDPAndCP(t *testing.T) {
	topo := Topology{TP: 2, CP: 2, PP: 2, DP: 2}
	g := topo.FSDPGroupRanks(0)
	if len(g) != topo.DP*topo.CP {
		t.Fatalf("FSDP group size = %d, want %d", len(g), topo.DP*topo.CP)
	}
	// All members share TP and PP coordinates.
	for _, m := range g {
		c := topo.Coords(m)
		if c.TP != 0 || c.PP != 0 {
			t.Fatalf("FSDP group member %d has coords %+v", m, c)
		}
	}
}

func tinyCoreCfg(topo Topology, v, nmb, nc int, zero fsdp.Mode, docMask bool) Config {
	return Config{
		Model: model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2,
			NLayers: 2 * topo.PP * v, MaxSeq: 16, RopeBase: 10000},
		Topo: topo, V: v, NMB: nmb, NC: nc,
		ZeRO: zero, Seq: 16, GBS: nmb * topo.DP, LR: 1e-3,
		UseDocMask: docMask, Seed: 99,
	}
}

// sequentialReference trains a single-rank model with the exact semantics
// the cluster claims: per-sample scale 1/gbs, AdamW on the flat parameters.
func sequentialReference(t *testing.T, cfg Config, gen *data.Generator, steps int) (*model.Model, []float64) {
	t.Helper()
	m := model.New(cfg.Model, rand.New(rand.NewSource(cfg.Seed)))
	opt := optim.NewAdamW(cfg.LR)
	var losses []float64
	for step := 0; step < steps; step++ {
		m.ZeroGrads()
		var loss float64
		for _, s := range gen.GlobalBatch(int64(step), cfg.GBS) {
			env := data.CausalEnv(s)
			if cfg.UseDocMask {
				env = data.Env(s)
			}
			l, ctx := m.ForwardLoss(s.Tokens, s.Targets, env, 1/float32(cfg.GBS))
			m.Backward(ctx)
			loss += l / float64(cfg.GBS)
		}
		losses = append(losses, loss)
		opt.Tick()
		var w, g []float32
		for _, p := range m.Params() {
			w = append(w, p.W.Data...)
			g = append(g, p.G.Data...)
		}
		opt.Step(0, w, g)
		off := 0
		for _, p := range m.Params() {
			copy(p.W.Data, w[off:off+p.W.Len()])
			off += p.W.Len()
		}
	}
	return m, losses
}

func runClusterSteps(t *testing.T, cfg Config, gen *data.Generator, steps int) (*Cluster, []float64) {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for step := 0; step < steps; step++ {
		losses = append(losses, cl.Step(gen, int64(step)))
	}
	return cl, losses
}

func compareAgainstSequential(t *testing.T, name string, cfg Config, steps int, tol float64) {
	t.Helper()
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 31}
	ref, refLosses := sequentialReference(t, cfg, gen, steps)
	cl, losses := runClusterSteps(t, cfg, gen, steps)

	for i := range losses {
		if math.Abs(losses[i]-refLosses[i]) > tol {
			t.Fatalf("%s: step %d loss %v != sequential %v", name, i, losses[i], refLosses[i])
		}
	}
	if cfg.Topo.TP == 1 {
		cl.MaterializeParams()
		params := cl.ParamsByName()
		for _, p := range ref.Params() {
			got, ok := params[p.Name]
			if !ok {
				t.Fatalf("%s: cluster missing param %s", name, p.Name)
			}
			if d := tensor.MaxDiff(got, p.W); d > tol {
				t.Fatalf("%s: param %s differs from sequential by %v", name, p.Name, d)
			}
		}
	}
}

func TestClusterPPOnlyMatchesSequential(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 2, DP: 1}, 2, 4, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "pp-only", cfg, 2, 1e-4)
}

func TestClusterDPOnlyMatchesSequential(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 1, DP: 2}, 1, 2, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "dp-only", cfg, 2, 1e-4)
}

func TestClusterCPOnlyMatchesSequential(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 2, PP: 1, DP: 1}, 1, 2, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "cp-only", cfg, 2, 1e-4)
}

func TestClusterTPOnlyMatchesSequential(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 2, CP: 1, PP: 1, DP: 1}, 1, 2, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "tp-only", cfg, 2, 1e-4)
}

func TestCluster3DMatchesSequential(t *testing.T) {
	// The short-context production shape in miniature: FSDP + TP + PP (§2.2).
	cfg := tinyCoreCfg(Topology{TP: 2, CP: 1, PP: 2, DP: 2}, 1, 2, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "3d", cfg, 2, 1e-3)
}

func TestCluster4DMatchesSequential(t *testing.T) {
	// The flagship: all four dimensions at once — 16 goroutine ranks running
	// FSDP × TP × CP × PP on document-masked data, matching the sequential
	// model's loss trajectory.
	cfg := tinyCoreCfg(Topology{TP: 2, CP: 2, PP: 2, DP: 2}, 1, 2, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "4d", cfg, 2, 1e-3)
}

func TestCluster4DZeRO2(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 2, PP: 2, DP: 2}, 1, 2, 2, fsdp.ZeRO2, true)
	compareAgainstSequential(t, "4d-zero2", cfg, 2, 1e-3)
}

func TestClusterZeRO3DP(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 1, DP: 2}, 1, 2, 2, fsdp.ZeRO3, false)
	compareAgainstSequential(t, "zero3", cfg, 2, 1e-4)
}

func TestClusterFlexibleScheduleRaggedBatch(t *testing.T) {
	// gbs that the original interleaved 1F1B cannot handle: nmb=3 on pp=2
	// with nc=2 (§3.1.1's flexibility claim, end to end).
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 2, DP: 1}, 2, 3, 2, fsdp.ZeRO1, true)
	compareAgainstSequential(t, "ragged", cfg, 2, 1e-4)
}

func TestClusterTrainingConverges(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 2, DP: 2}, 1, 2, 2, fsdp.ZeRO1, true)
	cfg.LR = 5e-3
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 41}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for step := 0; step < 10; step++ {
		loss := cl.Step(gen, 0) // repeat the same batch: memorisation
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("4D training loss did not decrease: %v -> %v", first, last)
	}
}

func TestConfigValidateRejectsBadShapes(t *testing.T) {
	base := tinyCoreCfg(Topology{TP: 2, CP: 2, PP: 2, DP: 2}, 1, 2, 2, fsdp.ZeRO1, false)
	bad := base
	bad.GBS = 3 // not divisible by dp
	if bad.Validate() == nil {
		t.Fatal("gbs %% dp must be rejected")
	}
	bad = base
	bad.Seq = 10 // not divisible by 2cp
	if bad.Validate() == nil {
		t.Fatal("seq %% 2cp must be rejected")
	}
	bad = base
	bad.Topo.TP = 3
	if bad.Validate() == nil {
		t.Fatal("heads %% tp must be rejected")
	}
	// A vocabulary or FFN width that tp does not divide is an error from
	// NewCluster, not a panic inside tp's sharding.
	for _, edit := range []func(*Config){
		func(c *Config) { c.Model.Vocab = 63 },
		func(c *Config) { c.Model.Hidden = 63 },
	} {
		bad = base
		edit(&bad)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("vocab %d, hidden %d: NewCluster panicked: %v", bad.Model.Vocab, bad.Model.Hidden, r)
				}
			}()
			if _, err := NewCluster(bad); err == nil {
				t.Fatalf("vocab %d, hidden %d: NewCluster accepted tp %d", bad.Model.Vocab, bad.Model.Hidden, bad.Topo.TP)
			}
		}()
	}
	if base.Validate() != nil {
		t.Fatalf("base config must validate: %v", base.Validate())
	}
}

// TestNewClusterRejectsZeroDims: a zero divisor in the config is an error
// from NewCluster, not an integer divide-by-zero inside the validator.
func TestNewClusterRejectsZeroDims(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"nmb", func(c *Config) { c.NMB = 0 }},
		{"v", func(c *Config) { c.V = 0 }},
		{"gbs", func(c *Config) { c.GBS = 0 }},
		{"seq", func(c *Config) { c.Seq = 0 }},
		{"nheads", func(c *Config) { c.Model.NHeads = 0 }},
		{"nkvheads", func(c *Config) { c.Model.NKVHeads = 0 }},
	} {
		cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 2, DP: 1}, 1, 2, 2, fsdp.ZeRO1, false)
		tc.edit(&cfg)
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("%s = 0: NewCluster returned no error", tc.name)
		}
	}
}

func TestDPReplicasStayBitwiseAligned(t *testing.T) {
	// After steps, all DP/CP replicas of the same (tp, pp) shard must hold
	// bitwise-identical weights: the determinism FSDP guarantees.
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 2, PP: 1, DP: 2}, 1, 2, 2, fsdp.ZeRO1, true)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 51}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		cl.Step(gen, int64(step))
	}
	ref := cl.Ranks[0]
	refParams := ref.Shard.Params()
	for _, r := range cl.Ranks[1:] {
		ps := r.Shard.Params()
		for i := range ps {
			if !tensor.BitwiseEqual(ps[i].W, refParams[i].W) {
				t.Fatalf("rank %d param %s diverged from rank 0", r.ID, ps[i].Name)
			}
		}
	}
}

func BenchmarkCluster4DStep(b *testing.B) {
	cfg := tinyCoreCfg(Topology{TP: 2, CP: 2, PP: 2, DP: 2}, 1, 2, 2, fsdp.ZeRO1, true)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 1}
	cl, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Step(gen, int64(i))
	}
}

func TestPhaseTransitionShortToLongContext(t *testing.T) {
	// The paper's multi-phase pre-training (§2.2): train short-context with
	// 3D parallelism, checkpoint, then resume long-context training with CP
	// enabled, a longer sequence, and a smaller global batch — weights carry
	// over exactly, and the long-context phase keeps learning.
	mc := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2,
		NLayers: 2, MaxSeq: 32, RopeBase: 10000}

	phase1 := Config{
		Model: mc, Topo: Topology{TP: 2, CP: 1, PP: 1, DP: 2},
		V: 1, NMB: 2, NC: 2, ZeRO: fsdp.ZeRO1,
		Seq: 16, GBS: 4, LR: 5e-3, UseDocMask: true, Seed: 77,
	}
	cl1, err := NewCluster(phase1)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := &data.Generator{Vocab: mc.Vocab, Seq: 16, AvgDocLen: 6, Seed: 61}
	for step := int64(0); step < 3; step++ {
		cl1.Step(gen1, step)
	}
	var ckpt bytes.Buffer
	if err := cl1.SaveTo(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Phase 2: same TP/PP, CP enabled, doubled sequence, halved batch.
	phase2 := Config{
		Model: mc, Topo: Topology{TP: 2, CP: 2, PP: 1, DP: 1},
		V: 1, NMB: 2, NC: 2, ZeRO: fsdp.ZeRO1,
		Seq: 32, GBS: 2, LR: 5e-3, UseDocMask: true, Seed: 78,
	}
	cl2, err := NewCluster(phase2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.LoadFrom(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The restored weights must equal phase 1's final weights on the
	// matching (tp, pp) shards, on every DP/CP replica.
	for _, r2 := range cl2.Ranks {
		for _, r1 := range cl1.Ranks {
			if r1.Coord.TP != r2.Coord.TP || r1.Coord.PP != r2.Coord.PP ||
				r1.Coord.DP != 0 || r1.Coord.CP != 0 {
				continue
			}
			p1, p2 := r1.Shard.Params(), r2.Shard.Params()
			for i := range p2 {
				if !tensor.BitwiseEqual(p1[i].W, p2[i].W) {
					t.Fatalf("rank %d param %s not carried into phase 2", r2.ID, p2[i].Name)
				}
			}
		}
	}
	// Phase 2 trains (loss finite and eventually below its start on a
	// repeated batch).
	gen2 := &data.Generator{Vocab: mc.Vocab, Seq: 32, AvgDocLen: 8, Seed: 62}
	first := cl2.Step(gen2, 0)
	var last float64
	for step := 0; step < 6; step++ {
		last = cl2.Step(gen2, 0)
	}
	if !(last < first) {
		t.Fatalf("long-context phase did not learn: %v -> %v", first, last)
	}
}

func TestEvalLossMatchesSequentialAndLeavesWeights(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 2, CP: 2, PP: 2, DP: 1}, 1, 2, 2, fsdp.ZeRO1, true)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 71}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*tensor.Tensor, 0)
	for _, p := range cl.Ranks[0].Shard.Params() {
		before = append(before, p.W.Clone())
	}

	// Sequential reference loss on the same batch.
	ref := model.New(cfg.Model, rand.New(rand.NewSource(cfg.Seed)))
	var want float64
	for _, s := range gen.GlobalBatch(0, cfg.GBS) {
		l, _ := ref.ForwardLoss(s.Tokens, s.Targets, data.Env(s), 1)
		want += l / float64(cfg.GBS)
	}

	got := cl.EvalLoss(gen, 0)
	if math.Abs(got-want) > 1e-4 {
		t.Fatalf("eval loss %v != sequential %v", got, want)
	}
	for i, p := range cl.Ranks[0].Shard.Params() {
		if !tensor.BitwiseEqual(p.W, before[i]) {
			t.Fatalf("eval must not modify weights (%s changed)", p.Name)
		}
	}
	// Repeated evaluation is deterministic.
	if got2 := cl.EvalLoss(gen, 0); got2 != got {
		t.Fatalf("eval not deterministic: %v vs %v", got, got2)
	}
}

func TestProductionInMiniature(t *testing.T) {
	// Everything at once: 16 ranks (tp2·cp2·pp2·dp2) with vocab-parallel
	// embedding/head, ZeRO-2 per-backward gradient resharding, a ragged
	// micro-batch count (nmb=3 on pp=2), document masks, a mid-run
	// full-state checkpoint, and a resumed cluster that finishes the run
	// bitwise-identically.
	mc := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2,
		NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	cfg := Config{
		Model: mc, Topo: Topology{TP: 2, CP: 2, PP: 2, DP: 2},
		V: 1, NMB: 3, NC: 2, // ragged: nmb=3 on pp=2
		ZeRO: fsdp.ZeRO2, Seq: 16, GBS: 6, LR: 2e-3,
		UseDocMask: true, Seed: 81,
	}
	gen := &data.Generator{Vocab: mc.Vocab, Seq: 16, AvgDocLen: 5, Seed: 82}

	clA, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step < 2; step++ {
		clA.Step(gen, step)
	}
	var ckpt bytes.Buffer
	if err := clA.SaveFullState(&ckpt); err != nil {
		t.Fatal(err)
	}
	for step := int64(2); step < 4; step++ {
		clA.Step(gen, step)
	}

	clB, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clB.LoadFullState(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	for step := int64(2); step < 4; step++ {
		clB.Step(gen, step)
	}
	// Full-state checkpointing (weights + sharded optimizer moments) makes
	// the resumed run bitwise identical to the uninterrupted one.
	pa := clA.Ranks[0].Shard.Params()
	pb := clB.Ranks[0].Shard.Params()
	for i := range pa {
		if !tensor.BitwiseEqual(pa[i].W, pb[i].W) {
			t.Fatalf("resumed run diverged on %s (maxdiff %v)", pa[i].Name, tensor.MaxDiff(pa[i].W, pb[i].W))
		}
	}
}

func TestLRScheduleApplied(t *testing.T) {
	cfg := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 1, DP: 1}, 1, 2, 2, fsdp.ZeRO1, false)
	cfg.LRSchedule = optim.WarmupCosine(1e-2, 1e-3, 4, 20)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 73}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lrs []float32
	for step := int64(0); step < 6; step++ {
		cl.Step(gen, step)
		lrs = append(lrs, cl.Ranks[0].Opt.LR)
	}
	for i := 1; i < 4; i++ {
		if lrs[i] <= lrs[i-1] {
			t.Fatalf("warm-up LRs not increasing: %v", lrs)
		}
	}
	if lrs[5] >= lrs[4] {
		t.Fatalf("decay LRs not decreasing: %v", lrs)
	}
}

// TestLoadFullStateRejectsOtherDPSize loads a DP=2 full-state checkpoint
// into a DP=1 cluster of the same model: the weights fit, but rank 0's
// moments are half its shard, and LoadFullState must say so instead of
// leaving the next Step to index past them.
func TestLoadFullStateRejectsOtherDPSize(t *testing.T) {
	cfg2 := tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 1, DP: 2}, 1, 1, 1, fsdp.ZeRO1, false)
	gen := &data.Generator{Vocab: cfg2.Model.Vocab, Seq: cfg2.Seq, AvgDocLen: 6, Seed: 5}
	cl2, err := NewCluster(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	cl2.Step(gen, 0)
	var ckpt bytes.Buffer
	if err := cl2.SaveFullState(&ckpt); err != nil {
		t.Fatal(err)
	}
	cl1, err := NewCluster(tinyCoreCfg(Topology{TP: 1, CP: 1, PP: 1, DP: 1}, 1, 1, 1, fsdp.ZeRO1, false))
	if err != nil {
		t.Fatal(err)
	}
	err = cl1.LoadFullState(bytes.NewReader(ckpt.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("DP=2 checkpoint into DP=1: error %v, want a moment/shard length mismatch", err)
	}
}

// TestStepReturnsEveryPooledBuffer: at steady state a training step hands
// back to the default tensor pool every buffer it takes from it — the
// residual stream the pipeline executor threads through embedding, blocks
// and head (forward outputs, incoming gradients, packed P2P messages) and
// the loss all-reduce included — so no step's Get misses the pool for want
// of a buffer an earlier step dropped. Checked on a one-stage and a
// two-stage pipeline and on the 16-rank 4D cluster.
func TestStepReturnsEveryPooledBuffer(t *testing.T) {
	defer tensor.SetPooling(tensor.SetPooling(true))
	for _, topo := range []Topology{
		{TP: 1, CP: 1, PP: 1, DP: 1},
		{TP: 1, CP: 1, PP: 2, DP: 1},
		{TP: 2, CP: 2, PP: 2, DP: 2},
	} {
		cfg := tinyCoreCfg(topo, 1, 2, 2, fsdp.ZeRO1, true)
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 5}
		cl.Step(gen, 0) // first step: optimizer state and pools warm up
		for step := int64(1); step < 4; step++ {
			before := tensor.DefaultPoolStats()
			cl.Step(gen, step)
			after := tensor.DefaultPoolStats()
			gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
			if gets != puts || after.Rejects != before.Rejects {
				t.Errorf("%+v step %d: %d pool gets, %d puts (%d leaked), %d rejects",
					topo, step, gets, puts, gets-puts, after.Rejects-before.Rejects)
			}
		}
	}
}
