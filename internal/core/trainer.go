package core

import (
	"fmt"
	"io"
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/optim"
	"llama4d/internal/pp"
	"llama4d/internal/tensor"
	"llama4d/internal/tp"
)

// Config describes a 4D-parallel training run.
type Config struct {
	Model model.Config
	Topo  Topology

	// Pipeline schedule: V virtual stages per PP rank, NMB micro-batches per
	// virtual stage, NC consecutive micro-batches per round (§3.1.1).
	V, NMB, NC int

	ZeRO     fsdp.Mode
	Balanced bool // remove one layer from first/last stage (§3.1.2)

	// HostSize models the physical host granularity: that many consecutive
	// global ranks share one host (8 on the paper's Grand Teton nodes).
	// When > 0, the comm layer runs bulk collectives hierarchically
	// (intra-host rendezvous + inter-host exchange) with byte accounting
	// split into ".intra"/".inter" tiers — bitwise identical to the flat
	// path. 0 keeps every collective single-level.
	HostSize int

	// Recompute selects the blocks' activation-recomputation mode (§6.3):
	// none, selective (replay attention), or full (keep only block inputs).
	Recompute model.RecomputeMode

	Seq int
	GBS int // global batch size in samples
	LR  float32
	// LRSchedule, if set, overrides LR per step (e.g. optim.WarmupCosine).
	LRSchedule func(step int) float64
	UseDocMask bool
	Seed       int64

	// Overlap selects which communication the functional layer issues
	// nonblocking (§7.3.1). The zero value is fully synchronous, and any
	// overlapped run is bitwise identical to the synchronous one.
	Overlap OverlapConfig

	// ShardPlanner, when set and CP > 1, chooses a per-sample CP row
	// partition (e.g. balance.PlanShards over the sample's document starts)
	// instead of the fixed zigzag sharding. The returned shards must exactly
	// partition 0..Seq-1 (cp.NewRaggedSharding validates). Per-row attention
	// outputs are bitwise independent of the layout — only cross-rank
	// reduction grouping moves — so the planner trades nothing but skew.
	ShardPlanner func(s *model.Sample, cpSize int) [][]int
}

// OverlapConfig enables comm–compute overlap in the functional layer. Each
// knob moves one class of collectives from blocking to handle-based issue;
// none of them changes accumulation order, so results stay bitwise equal to
// the synchronous run (the invariant the xval sweep asserts).
type OverlapConfig struct {
	// Params is the ZeRO-3 parameter-prefetch depth: while unit u (an
	// embedding, block, or head) computes, the all-gathers of units
	// u+1..u+Params are in flight. 0 gathers synchronously.
	Params int

	// Grads overlaps ZeRO-2's per-backward gradient reduce-scatter with
	// subsequent compute, drained in issue order before the optimizer.
	Grads bool

	// P2P pre-posts each pipeline receive up to this many schedule ops
	// before the consuming op and issues activation/gradient sends
	// nonblocking. 0 keeps P2P synchronous.
	P2P int
}

// Validate checks the configuration's divisibility constraints (§5.1).
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.HostSize < 0 {
		return fmt.Errorf("core: host size %d", c.HostSize)
	}
	if c.NMB < 1 || c.V < 1 || c.GBS < 1 || c.Seq < 1 {
		return fmt.Errorf("core: nmb %d, v %d, gbs %d and seq %d must be >= 1", c.NMB, c.V, c.GBS, c.Seq)
	}
	if c.GBS%c.Topo.DP != 0 {
		return fmt.Errorf("core: gbs %d not divisible by dp %d", c.GBS, c.Topo.DP)
	}
	bs := c.GBS / c.Topo.DP
	if bs%c.NMB != 0 {
		return fmt.Errorf("core: per-group batch %d not divisible by nmb %d", bs, c.NMB)
	}
	if c.Topo.CP > 1 && c.Seq%(2*c.Topo.CP) != 0 {
		return fmt.Errorf("core: seq %d not divisible by 2*cp", c.Seq)
	}
	if c.Topo.TP > 1 && (c.Model.NHeads%c.Topo.TP != 0 || c.Model.NKVHeads%c.Topo.TP != 0) {
		return fmt.Errorf("core: heads not divisible by tp %d", c.Topo.TP)
	}
	// tp shards the vocabulary and the FFN hidden width by columns, and
	// panics on a remainder.
	if c.Model.Vocab%c.Topo.TP != 0 || c.Model.Hidden%c.Topo.TP != 0 {
		return fmt.Errorf("core: vocab %d or FFN hidden width %d not divisible by tp %d", c.Model.Vocab, c.Model.Hidden, c.Topo.TP)
	}
	stages := c.Topo.PP * c.V
	need := c.Model.NLayers
	if c.Balanced {
		need += 2
	}
	if need%stages != 0 && !c.Balanced {
		return fmt.Errorf("core: %d layers not divisible by %d stages", c.Model.NLayers, stages)
	}
	return nil
}

// MBS returns the samples per micro-batch.
func (c Config) MBS() int { return c.GBS / c.Topo.DP / c.NMB }

// Rank is the per-GPU training state.
type Rank struct {
	ID     int
	Coord  Coord
	Groups Groups

	Exec  *pp.Executor
	Shard *fsdp.Sharded
	Opt   *optim.AdamW

	cpShard cp.Sharding
	cluster *Cluster
}

// Cluster is an in-process 4D-parallel training cluster.
type Cluster struct {
	Cfg   Config
	World *comm.World
	Sched *pp.Schedule
	Ranks []*Rank

	reg *metrics.Registry // set by Attach; nil disables per-rank census
}

// NewCluster builds every rank's model shard, pipeline stages, process
// groups, and FSDP state. All ranks initialise from the same seed, so TP
// shards and replicas start bitwise aligned.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	world := comm.NewWorld(cfg.Topo.World())
	world.Topo = comm.Topology{HostSize: cfg.HostSize} // before any group exists
	sched := pp.NewFlexible(cfg.Topo.PP, cfg.V, cfg.NMB, cfg.NC)
	cache := newGroupCache(world)
	cl := &Cluster{Cfg: cfg, World: world, Sched: sched}

	counts := pp.StageLayerCounts(cfg.Model.NLayers, sched.Stages(), cfg.Balanced)
	for id := 0; id < world.Size(); id++ {
		c := cfg.Topo.Coords(id)
		r := &Rank{ID: id, Coord: c, cluster: cl}
		r.Groups = Groups{
			TP:    cache.get(cfg.Topo.TPGroupRanks(id), "tp"),
			CP:    cache.get(cfg.Topo.CPGroupRanks(id), "cp"),
			PP:    cache.get(cfg.Topo.PPGroupRanks(id), "pp"),
			FSDP:  cache.get(cfg.Topo.FSDPGroupRanks(id), "dp"),
			World: cache.get(allRanks(world.Size()), "world"),
		}

		replica := model.New(cfg.Model, rand.New(rand.NewSource(cfg.Seed)))
		for _, b := range replica.Blocks {
			b.Recompute = cfg.Recompute
		}
		var tpc *tp.Ctx
		if cfg.Topo.TP > 1 {
			tpc = &tp.Ctx{Group: r.Groups.TP, Rank: id}
			for i, b := range replica.Blocks {
				replica.Blocks[i] = tp.ShardBlock(b, tpc)
			}
		}
		stages := pp.SplitModel(replica, sched, c.PP, counts)
		if tpc != nil {
			// Vocabulary parallelism: shard the embedding table and output
			// head across the TP group (the 128K-vocabulary matrices of
			// §3.1.2 are far too large to replicate).
			for _, st := range stages {
				if st.Embed != nil {
					st.Embed = tp.NewVocabParallelEmbeddingFromFull(
						replica.Embed.P.Name, replica.Embed.P.W, tpc)
				}
				if st.Head != nil {
					st.Head = tp.NewVocabParallelHeadFromFull(replica.Head, tpc)
				}
			}
		}
		r.Exec = &pp.Executor{
			World: world, Group: r.Groups.PP, Rank: id, Sched: sched,
			Stages: stages,
		}
		// FSDP units, stage-major: the embedding, each transformer block,
		// and the head shard (and overlap) independently. Unit order equals
		// the old monolithic parameter order, so checkpoints and parameter
		// comparisons are unchanged.
		var units [][]*model.Param
		um := make([]stageUnits, len(r.Exec.Stages))
		for vs, st := range r.Exec.Stages {
			um[vs].embed, um[vs].head = -1, -1
			if st.Embed != nil {
				um[vs].embed = len(units)
				units = append(units, st.Embed.Params())
			}
			for _, l := range st.Layers {
				um[vs].layers = append(um[vs].layers, len(units))
				units = append(units, l.Params())
			}
			if st.Head != nil {
				um[vs].head = len(units)
				units = append(units, st.Head.Params())
			}
		}
		r.Opt = optim.NewAdamW(cfg.LR)
		r.Shard = fsdp.NewSharded(r.Groups.FSDP, id, cfg.ZeRO, units, r.Opt)
		r.Shard.Prefetch = cfg.Overlap.Params
		r.Shard.AsyncGrads = cfg.Overlap.Grads
		if cfg.ZeRO == fsdp.ZeRO3 && cfg.Overlap.Params > 0 {
			r.Exec.Gather = &gatherAdapter{shard: r.Shard, units: um}
		}
		r.Exec.RecvAhead = cfg.Overlap.P2P
		r.Exec.AsyncSend = cfg.Overlap.P2P > 0
		if cfg.Topo.CP > 1 {
			r.cpShard = cp.NewSharding(cfg.Seq, cfg.Topo.CP)
		}
		cl.Ranks = append(cl.Ranks, r)
	}
	return cl, nil
}

// Attach wires a metrics registry into every measurement hook of the
// cluster: the world's comm Recorder (collective wall times) and Meter
// (per-rank byte/message counts), and every rank's pipeline-executor
// Observer (op log, timing, live activation footprint). Call it before
// stepping; bracket each step with reg.BeginStep/reg.EndStep to obtain a
// StepReport.
func (cl *Cluster) Attach(reg *metrics.Registry) {
	cl.reg = reg
	cl.World.Recorder = reg
	cl.World.Meter = reg
	for _, r := range cl.Ranks {
		r.Exec.Obs = reg
	}
}

// stageUnits maps one virtual stage's model fragments to FSDP unit indices
// (-1 when the stage lacks the fragment).
type stageUnits struct {
	embed, head int
	layers      []int
}

// gatherAdapter bridges the executor's ParamGatherer hooks to the sharded
// FSDP state's per-unit EnsureUnit, which waits the unit's in-flight
// all-gather and slides the prefetch window.
type gatherAdapter struct {
	shard *fsdp.Sharded
	units []stageUnits
}

func (a *gatherAdapter) EnsureEmbed(vstage int) {
	if u := a.units[vstage].embed; u >= 0 {
		a.shard.EnsureUnit(u)
	}
}

func (a *gatherAdapter) EnsureLayer(vstage, layer int) {
	a.shard.EnsureUnit(a.units[vstage].layers[layer])
}

func (a *gatherAdapter) EnsureHead(vstage int) {
	if u := a.units[vstage].head; u >= 0 {
		a.shard.EnsureUnit(u)
	}
}

func allRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// buildMicrobatches prepares this rank's pipeline input for one step: the DP
// group's samples split into micro-batches, with CP-local rows/positions and
// token-weighted loss scales.
func (r *Rank) buildMicrobatches(src data.Batcher, step int64) []*pp.Microbatch {
	cfg := r.cluster.Cfg
	samples := src.DPBatch(step, cfg.GBS, cfg.Topo.DP, r.Coord.DP)
	// Stable per-sample tags (corpus indices), when the source can name them:
	// they ride the micro-batches so per-sample losses stay comparable across
	// different sample→rank placements.
	var tags []int64
	if tg, ok := src.(data.Tagger); ok {
		tags = tg.DPTags(step, cfg.GBS, cfg.Topo.DP, r.Coord.DP)
	}
	// Per-rank attention census: one recorder per rank goroutine, shared by
	// all of the rank's environments this step.
	var rec *attention.Recorder
	if r.cluster.reg != nil {
		rec = r.cluster.reg.AttnRecorder(r.ID)
	}
	mbs := make([]*pp.Microbatch, cfg.NMB)
	mbsSamples := cfg.MBS()
	for i := 0; i < cfg.NMB; i++ {
		mb := &pp.Microbatch{}
		for j := 0; j < mbsSamples; j++ {
			full := samples[i*mbsSamples+j]
			var mask attention.Mask = attention.Causal{}
			if cfg.UseDocMask {
				mask = attention.Document{DocID: full.DocIDs}
			}
			totalValid := validTargets(full.Targets)

			if cfg.Topo.CP > 1 {
				// Every CP rank derives the same layout from the sample, so
				// the exchange needs no coordination.
				var layout cp.Layout = r.cpShard
				if cfg.ShardPlanner != nil {
					layout = cp.NewRaggedSharding(cfg.Seq, cfg.ShardPlanner(full, cfg.Topo.CP))
				}
				env := cp.Env(layout, mask, r.Groups.CP, r.ID)
				local := cp.LocalSample(layout, full, r.Groups.CP.LocalRank(r.ID))
				localValid := validTargets(local.Targets)
				env.Rec = rec
				mb.Samples = append(mb.Samples, local)
				mb.Envs = append(mb.Envs, env)
				// Head divides by localValid; the net per-token gradient
				// coefficient must be 1/(gbs·totalValid).
				mb.Scales = append(mb.Scales, float32(localValid)/(float32(cfg.GBS)*float32(totalValid)))
				mb.Weights = append(mb.Weights, float64(localValid)/float64(totalValid))
			} else {
				env := model.SeqEnv(cfg.Seq, mask)
				env.Rec = rec
				mb.Samples = append(mb.Samples, full)
				mb.Envs = append(mb.Envs, env)
				mb.Scales = append(mb.Scales, 1/float32(cfg.GBS))
				mb.Weights = append(mb.Weights, 1)
			}
			if tags != nil {
				mb.Tags = append(mb.Tags, tags[i*mbsSamples+j])
			}
		}
		mbs[i] = mb
	}
	return mbs
}

func validTargets(ts []int) int {
	n := 0
	for _, t := range ts {
		if t >= 0 {
			n++
		}
	}
	return n
}

// stepRank executes one rank's training step and returns its weighted loss
// contribution.
func (r *Rank) stepRank(src data.Batcher, step int64) float64 {
	cfg := r.cluster.Cfg
	if cfg.ZeRO == fsdp.ZeRO3 {
		if cfg.Overlap.Params > 0 {
			// Prefetched re-gather: issue the first units' all-gathers now;
			// the executor's ParamGatherer hooks wait each unit just before
			// its compute and keep the window full.
			r.Shard.StartGather()
		} else {
			r.Shard.GatherParams()
		}
	}
	mbs := r.buildMicrobatches(src, step)
	if cfg.ZeRO == fsdp.ZeRO2 {
		r.Exec.OnBackward = func(vstage, mb int) { r.Shard.ReduceScatterGrads() }
	} else {
		r.Exec.OnBackward = nil
	}
	lossSum, _ := r.Exec.RunStep(mbs)
	if cfg.LRSchedule != nil {
		r.Opt.LR = float32(cfg.LRSchedule(r.Opt.StepCount()))
	}
	r.Opt.Tick()
	r.Shard.Step()
	return lossSum
}

// Step runs one synchronous training step across the whole cluster and
// returns the global mean loss (per-sample token-mean averaged over the
// global batch), identical in semantics to the sequential reference's
// StepLoss over the same global batch. A rank failure mid-step panics in
// the caller (it cannot hang — see TryStep for the error-returning path).
func (cl *Cluster) Step(src data.Batcher, step int64) float64 {
	loss, err := cl.TryStep(src, step)
	if err != nil {
		panic(err)
	}
	return loss
}

// TryStep is Step with failure detection: a rank that crashes or stalls
// past the world's failure-detection deadline mid-step surfaces as a typed
// error (*comm.RankPanicError or *comm.DeadlineError) on the caller instead
// of deadlocking the surviving ranks — the substrate internal/ft's recovery
// controller builds on. After a non-nil error the cluster's world is dead;
// recovery means rebuilding the cluster and restoring a checkpoint.
func (cl *Cluster) TryStep(src data.Batcher, step int64) (float64, error) {
	losses := make([]float64, len(cl.Ranks))
	err := cl.World.RunSPMD(func(id int) {
		r := cl.Ranks[id]
		local := r.stepRank(src, step)
		// Aggregate the loss across the world: heads exist only on the last
		// PP rank, and every TP rank duplicates the same head loss.
		contrib := tensor.FromSlice([]float32{float32(local)}, 1)
		total := r.Groups.World.AllReduce(id, contrib)
		losses[id] = float64(total.Data[0]) / float64(cl.Cfg.Topo.TP) / float64(cl.Cfg.GBS)
		tensor.Put(total)
	})
	if err != nil {
		return 0, err
	}
	return losses[0], nil
}

// EvalLoss runs a forward-only pass over the step's global batch and
// returns the mean loss — validation without gradients, optimizer updates,
// or activation retention. Panics on rank failure; see TryEvalLoss.
func (cl *Cluster) EvalLoss(src data.Batcher, step int64) float64 {
	loss, err := cl.TryEvalLoss(src, step)
	if err != nil {
		panic(err)
	}
	return loss
}

// TryEvalLoss is EvalLoss with failure detection (see TryStep).
func (cl *Cluster) TryEvalLoss(src data.Batcher, step int64) (float64, error) {
	losses := make([]float64, len(cl.Ranks))
	err := cl.World.RunSPMD(func(id int) {
		r := cl.Ranks[id]
		if cl.Cfg.ZeRO == fsdp.ZeRO3 {
			r.Shard.GatherParams()
		}
		mbs := r.buildMicrobatches(src, step)
		local, _ := r.Exec.RunForward(mbs)
		contrib := tensor.FromSlice([]float32{float32(local)}, 1)
		total := r.Groups.World.AllReduce(id, contrib)
		losses[id] = float64(total.Data[0]) / float64(cl.Cfg.Topo.TP) / float64(cl.Cfg.GBS)
		tensor.Put(total)
	})
	if err != nil {
		return 0, err
	}
	return losses[0], nil
}

// SaveTo checkpoints the cluster's weights: one parameter stream per
// (TP, PP) coordinate, taken from the dp=0/cp=0 replica (all DP/CP replicas
// are bitwise identical). The stream restores into any cluster with the
// same TP and PP — the DP, CP, sequence length, and batch size may all
// change, which is exactly how Llama 3 moved between pre-training phases
// (§2.2: growing GPU counts, batch sizes, and sequence lengths).
func (cl *Cluster) SaveTo(w io.Writer) error {
	if err := cl.MaterializeParams(); err != nil {
		return err
	}
	for _, r := range cl.Ranks {
		if r.Coord.DP != 0 || r.Coord.CP != 0 {
			continue
		}
		if err := model.SaveParams(w, r.Shard.Params()); err != nil {
			return err
		}
	}
	return nil
}

// LoadFrom restores a SaveTo checkpoint into this cluster. TP and PP (and
// the model architecture) must match the saving cluster; every DP/CP
// replica receives the weights.
func (cl *Cluster) LoadFrom(read io.Reader) error {
	// Streams arrive in the saving cluster's (tp, pp) iteration order, which
	// this cluster reproduces because rank order is deterministic.
	type key struct{ tp, pp int }
	loaded := make(map[key][]*model.Param)
	for _, r := range cl.Ranks {
		if r.Coord.DP != 0 || r.Coord.CP != 0 {
			continue
		}
		if err := model.LoadParams(read, r.Shard.Params()); err != nil {
			return fmt.Errorf("core: loading (tp=%d, pp=%d): %w", r.Coord.TP, r.Coord.PP, err)
		}
		loaded[key{r.Coord.TP, r.Coord.PP}] = r.Shard.Params()
	}
	// Copy into the remaining replicas.
	for _, r := range cl.Ranks {
		if r.Coord.DP == 0 && r.Coord.CP == 0 {
			continue
		}
		src, ok := loaded[key{r.Coord.TP, r.Coord.PP}]
		if !ok {
			return fmt.Errorf("core: no source shard for rank %d", r.ID)
		}
		dst := r.Shard.Params()
		for i := range dst {
			copy(dst[i].W.Data, src[i].W.Data)
		}
	}
	return nil
}

// SaveFullState checkpoints weights AND the sharded optimizer state of
// every rank, enabling bitwise-exact resume on an identical topology.
func (cl *Cluster) SaveFullState(w io.Writer) error {
	if err := cl.SaveTo(w); err != nil {
		return err
	}
	for _, r := range cl.Ranks {
		if err := r.Opt.SaveState(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadFullState restores a SaveFullState checkpoint. The topology must
// match exactly (optimizer shards are per-rank): a moment whose length is
// not its unit's shard length on that rank — a checkpoint of another DP
// size — is an error.
func (cl *Cluster) LoadFullState(read io.Reader) error {
	if err := cl.LoadFrom(read); err != nil {
		return err
	}
	for _, r := range cl.Ranks {
		if err := r.Opt.LoadState(read); err != nil {
			return fmt.Errorf("core: loading optimizer state of rank %d: %w", r.ID, err)
		}
		for _, u := range r.Shard.Units {
			if n, ok := r.Opt.MomentLen(u.OptID); ok && n != u.ShardLen() {
				return fmt.Errorf("core: optimizer state of rank %d: unit %d has %d-element moments for a %d-element shard",
					r.ID, u.OptID, n, u.ShardLen())
			}
		}
	}
	return nil
}

// MaterializeParams all-gathers ZeRO-3-released parameters back into the
// full per-rank buffers (no-op for ZeRO-1/2). Call before inspecting
// weights. Returns a failure-detection error if a rank dies mid-gather.
func (cl *Cluster) MaterializeParams() error {
	return cl.World.RunSPMD(func(id int) {
		cl.Ranks[id].Shard.GatherParams()
	})
}
