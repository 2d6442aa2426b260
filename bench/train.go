package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"llama4d/internal/attention"
	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
)

// lossTolerance is the repo's own bound on parallel-vs-sequential loss
// (core_test.go's compareAgainstSequential uses 1e-3 for 4D runs).
const lossTolerance = 1e-3

// trainSpec is one training workload: a 4D configuration and the corpus it
// trains on. Seed feeds weight init and the data generator.
type trainSpec struct {
	cfg         core.Config // Seed left zero
	avgDocLen   int
	longDocFrac float64
	// sweptPairs, when set, fixes the attention cost of the timed steps: the
	// ops cycle over the sameCostSteps steps, among the first stepCandidates
	// of the seed's corpus, whose attnCost is nearest to it. Zero runs the
	// corpus's steps 1, 2, 3, … in order.
	sweptPairs int64
}

const (
	stepCandidates = 256
	sameCostSteps  = 8
)

// attnCost is what the document layout of a step's batch costs in the
// blocked attention engine: per sample, the most pairs any CP rank sweeps
// (those of its non-empty score tiles, its rows against the whole sequence).
func (t trainSpec) attnCost(gen *data.Generator, step int64) int64 {
	sh := cp.NewSharding(t.cfg.Seq, t.cfg.Topo.CP)
	var cost int64
	for _, smp := range gen.GlobalBatch(step, t.cfg.GBS) {
		var worst int64
		for r := 0; r < t.cfg.Topo.CP; r++ {
			g := attention.BuildGrid(attention.Document{DocID: smp.DocIDs}, sh.LocalPositions(r), 0, t.cfg.Seq)
			worst = max(worst, g.TotalPairs()-g.EmptyPairs)
		}
		cost += worst
	}
	return cost
}

// steps returns the corpus steps the timed ops cycle over, nil for all of
// them in order, and how far the picked steps' cost is from sweptPairs at
// most, as a share of it.
func (t trainSpec) steps(gen *data.Generator) (steps []int64, off float64) {
	if t.sweptPairs == 0 {
		return nil, 0
	}
	dist := make(map[int64]int64, stepCandidates)
	for step := int64(1); step <= stepCandidates; step++ {
		d := t.attnCost(gen, step) - t.sweptPairs
		dist[step] = max(d, -d)
		steps = append(steps, step)
	}
	sort.SliceStable(steps, func(i, j int) bool { return dist[steps[i]] < dist[steps[j]] })
	steps = steps[:sameCostSteps]
	off = float64(dist[steps[len(steps)-1]]) / float64(t.sweptPairs)
	slices.Sort(steps)
	return steps, off
}

func (t trainSpec) open(seed int64, traceable bool) (session, error) {
	cfg := t.cfg
	cfg.Seed = seed
	s := &trainSession{
		cfg: cfg,
		gen: &data.Generator{
			Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: t.avgDocLen,
			Seed: seed, LongDocFrac: t.longDocFrac,
		},
	}
	s.cycle, s.costOff = t.steps(s.gen)
	n := 1
	if traceable {
		// A second, identical cluster carries the registry: the plain one
		// never pays for a hook, and both run the same steps on the same
		// batches, so their step times differ only by the tracing.
		n = 2
	}
	for i := 0; i < n; i++ {
		cl, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		s.cl[i] = cl
		// Warm-up: step 0 fills the tensor arena and the optimizer state.
		loss, err := cl.TryStep(s.gen, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up step: %w", err)
		}
		s.losses[i] = []float64{loss}
	}
	return s, nil
}

type trainSession struct {
	cfg    core.Config
	gen    *data.Generator
	cl     [2]*core.Cluster // plain, traced
	losses [2][]float64     // loss of every step so far, per cluster

	cycle   []int64 // the corpus steps the ops cycle over; nil for 1, 2, 3, …
	costOff float64 // how far their attention cost is from the spec's, at most

	// Folded from the traced steps' StepReports.
	steps      int
	shares     map[string]float64 // sums over traced steps of per-step rank means
	first      *metrics.StepReport
	flops, sec float64
	gets, hits float64
	peakActMB  float64
	peakCtx    int
	lastReg    *metrics.Registry
}

func (s *trainSession) digest() uint64 { return math.Float64bits(s.losses[0][0]) }

func (s *trainSession) op(m *samples, traced bool, log *spanLog, parent int) {
	i := 0
	var reg *metrics.Registry
	if traced {
		i = 1
		// A fresh registry per step keeps EndStep's event scan bounded.
		reg = metrics.NewRegistry(len(s.cl[i].Ranks))
		s.cl[i].Attach(reg)
	}
	step := int64(len(s.losses[i])) // the warm-up was step 0
	if s.cycle != nil {
		step = s.cycle[(step-1)%int64(len(s.cycle))]
	}
	id := log.begin("step", parent)
	if traced {
		reg.BeginStep(step)
	}
	t0 := time.Now()
	loss, err := s.cl[i].TryStep(s.gen, step)
	dt := time.Since(t0)
	log.end(id)
	var rep *metrics.StepReport
	if traced {
		rep = reg.EndStep()
	}

	m.attempted++
	// A failed step keeps its slot, so the next op moves on to the next step.
	s.losses[i] = append(s.losses[i], loss)
	switch {
	case err != nil:
		m.fail("step %d: %v", step, err)
		return
	case math.IsNaN(loss) || math.IsInf(loss, 0):
		m.fail("step %d: loss %v", step, loss)
	}
	ms := dt.Seconds() * 1e3
	m.ops = append(m.ops, opSample{wallMS: ms, latMS: ms, work: float64(s.cfg.GBS * s.cfg.Seq)})
	if traced {
		s.fold(rep)
		s.lastReg = reg
	}
}

func (s *trainSession) note() string {
	if s.cycle == nil {
		return "corpus steps 1, 2, 3, ... in order"
	}
	return fmt.Sprintf("cycling over corpus steps %v, attention cost within %.2g of the spec's", s.cycle, s.costOff)
}

// fold accumulates one traced step. Shares are of the step's wall time,
// averaged over ranks.
func (s *trainSession) fold(rep *metrics.StepReport) {
	if s.first == nil {
		s.first = rep
		s.shares = map[string]float64{}
	}
	s.steps++
	n := float64(len(rep.Ranks))
	var maxCompute, sumCompute float64
	for _, rr := range rep.Ranks {
		w := rep.WallSeconds * n
		s.shares["core.compute_share"] += rr.ComputeSeconds / w
		s.shares["core.idle_share"] += rr.IdleSeconds / w
		s.shares["pp.p2p_wait_share"] += rr.P2PWaitSeconds / w
		s.shares["core.accounted_share"] += (rr.ComputeSeconds + rr.P2PWaitSeconds + rr.IdleSeconds) / w
		s.shares["comm.blocking_share"] += rr.CommSeconds / w
		s.shares["comm.exposed_share"] += rr.ExposedCommSeconds / w
		s.shares["comm.overlap_share"] += rr.OverlapCommSeconds / w
		sumCompute += rr.ComputeSeconds
		maxCompute = math.Max(maxCompute, rr.ComputeSeconds)
		s.peakActMB = math.Max(s.peakActMB, float64(rr.PeakActivationBytes)/(1<<20))
		if rr.PeakLiveContexts > s.peakCtx {
			s.peakCtx = rr.PeakLiveContexts
		}
	}
	s.shares["core.straggler_ratio"] += ratio(maxCompute, sumCompute/n)
	s.flops += float64(rep.FLOPs)
	s.sec += rep.WallSeconds
	s.gets += float64(rep.Pool.Gets)
	s.hits += float64(rep.Pool.Hits)
}

func (s *trainSession) layers(out map[string]float64) {
	if s.steps == 0 {
		return
	}
	for name, v := range s.shares {
		out[name] = v / float64(s.steps)
	}
	// Exact counts come from the first traced step (step 1): they are a
	// function of the seed alone, whatever number of steps fits the run.
	rep := s.first
	var msgs, inter int64
	for _, rr := range rep.Ranks {
		for key, v := range rr.Comm {
			msgs += v.Msgs
			if strings.HasSuffix(key, ".inter") {
				inter += v.Bytes
			}
		}
	}
	out["comm.tp_bytes"] = float64(rep.TotalCommBytes("tp"))
	out["comm.cp_bytes"] = float64(rep.TotalCommBytes("cp"))
	out["comm.dp_bytes"] = float64(rep.TotalCommBytes("dp"))
	out["comm.p2p_bytes"] = float64(rep.TotalCommBytes("p2p"))
	out["comm.inter_bytes"] = float64(inter)
	out["comm.msgs"] = float64(msgs)
	out["tensor.flops"] = float64(rep.FLOPs)
	out["attention.eff_flop_share"] = ratio(float64(rep.EffectiveFLOPs), float64(rep.FLOPs))
	tiles := rep.Attn.FullTiles + rep.Attn.PartialTiles + rep.Attn.EmptyTiles
	out["attention.tile_skip_share"] = ratio(float64(rep.Attn.EmptyTiles), float64(tiles))
	out["core.loss_step1"] = s.losses[1][1]

	out["tensor.achieved_gflops"] = ratio(s.flops, s.sec) / 1e9
	out["tensor.pool_hit_share"] = ratio(s.hits, s.gets)
	out["pp.peak_activation_mb"] = s.peakActMB
	out["pp.peak_live_contexts"] = float64(s.peakCtx)
}

func (s *trainSession) verify(m *samples) {
	// Step 0 against the sequential reference on the same global batch.
	m.attempted++
	ref := model.New(s.cfg.Model, rand.New(rand.NewSource(s.cfg.Seed)))
	var want float64
	for _, smp := range s.gen.GlobalBatch(0, s.cfg.GBS) {
		env := data.CausalEnv(smp)
		if s.cfg.UseDocMask {
			env = data.Env(smp)
		}
		loss, _ := ref.ForwardLoss(smp.Tokens, smp.Targets, env, 1)
		want += loss / float64(s.cfg.GBS)
	}
	if got := s.losses[0][0]; math.Abs(got-want) > lossTolerance {
		m.fail("step 0 loss %v differs from the sequential reference %v", got, want)
	}
	// The traced cluster ran the same steps: its losses must match bit for bit.
	if s.cl[1] != nil {
		m.attempted++
		for i, l := range s.losses[1] {
			if i < len(s.losses[0]) && math.Float64bits(l) != math.Float64bits(s.losses[0][i]) {
				m.fail("step %d: traced loss %v != plain loss %v", i, l, s.losses[0][i])
				break
			}
		}
	}
}

// export writes the last traced step's rank-level event trace in Chrome's
// trace-event format.
func (s *trainSession) export(path string) error {
	if s.lastReg == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.lastReg.Trace().WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
