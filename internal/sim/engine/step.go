package engine

import (
	"fmt"

	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/sim/cost"
)

// TrainSim configures a full training-step simulation under 4D parallelism.
// Each micro-batch carries MBS samples of Seq tokens (MBS = 1, as in
// production 405B training, when left zero); NMB micro-batches per virtual
// stage.
type TrainSim struct {
	Cost  cost.Model
	Model model.Config

	TP, CP, PP, DP int
	V, NC, NMB     int

	// MBS is the samples per micro-batch; 0 means 1.
	MBS int

	Seq int

	Balanced  bool                // §3.1.2 layer rebalancing
	Recompute model.RecomputeMode // backward-pass activation recomputation

	// HostSize, when > 0, prices bulk collectives with the two-level
	// NVLink/RoCE decomposition (cost.HierAllGather &co.) over hosts of
	// that many consecutive ranks, matching the hierarchical transport;
	// 0 prices every collective as one flat ring whose link tier is the
	// group's span (cost.Model.GroupLink).
	HostSize int

	// Schedule overrides the default flexible schedule (e.g. to simulate
	// the wave-ordered all-forward-all-backward schedule of Fig 9).
	Schedule *pp.Schedule
}

// World returns the simulated GPU count.
func (ts TrainSim) World() int { return ts.TP * ts.CP * ts.PP * ts.DP }

func (ts TrainSim) mbs() int {
	if ts.MBS < 1 {
		return 1
	}
	return ts.MBS
}

// GlobalBatchTokens returns the tokens per training step.
func (ts TrainSim) GlobalBatchTokens() int64 {
	return int64(ts.DP) * int64(ts.NMB) * int64(ts.mbs()) * int64(ts.Seq)
}

// allGather prices one all-gather of `bytes` output per rank, hierarchically
// when a host topology is set.
func (ts TrainSim) allGather(ranks []int, bytes float64) float64 {
	if ts.HostSize > 0 {
		intra, inter := ts.Cost.HierAllGather(ranks, ts.HostSize, bytes)
		return intra + inter
	}
	return ts.Cost.AllGather(ranks, bytes)
}

// reduceScatter prices one reduce-scatter of `bytes` input per rank.
func (ts TrainSim) reduceScatter(ranks []int, bytes float64) float64 {
	if ts.HostSize > 0 {
		intra, inter := ts.Cost.HierReduceScatter(ranks, ts.HostSize, bytes)
		return intra + inter
	}
	return ts.Cost.ReduceScatter(ranks, bytes)
}

// StepReport is the outcome of one simulated training step.
type StepReport struct {
	StepTime     float64 // seconds
	TFLOPsPerGPU float64 // achieved model TFLOPs per GPU (the paper's metric)
	BubbleRatio  float64
	DPExposed    float64   // first all-gather + last reduce-scatter (§7.3.1)
	DPCommTotal  float64   // all FSDP collective time, overlapped or not
	PerRankBusy  []float64 // PP-rank compute seconds
	Timeline     *pp.Timeline

	// DPGather and DPScatter price one virtual stage's FSDP parameter
	// all-gather and gradient reduce-scatter over the DP×CP group (0 when it
	// has one member): DPExposed is their sum, DPCommTotal V times it.
	DPGather, DPScatter float64
}

// ModeledOverlapFraction returns the fraction of FSDP communication time the
// §7.3.1 overlap scheme hides behind compute: every virtual stage's parameter
// all-gather and gradient reduce-scatter overlaps except the first all-gather
// (no compute precedes it) and the last reduce-scatter (no compute follows
// it), so the fraction is (DPCommTotal − DPExposed) / DPCommTotal. Returns 0
// when the configuration has no FSDP communication. This is the modeled
// counterpart of metrics.StepReport.OverlapFraction, which measures the same
// quantity from a live run's handle timings.
func (r *StepReport) ModeledOverlapFraction() float64 {
	if r.DPCommTotal <= 0 {
		return 0
	}
	return (r.DPCommTotal - r.DPExposed) / r.DPCommTotal
}

// stageShape captures per-global-stage cost inputs.
type stageShape struct {
	layers   int
	hasEmbed bool
	hasHead  bool
}

func (ts TrainSim) stageShapes() []stageShape {
	stages := ts.PP * ts.V
	counts := pp.StageLayerCounts(ts.Model.NLayers, stages, ts.Balanced)
	shapes := make([]stageShape, stages)
	for g := range shapes {
		shapes[g] = stageShape{layers: counts[g], hasEmbed: g == 0, hasHead: g == stages-1}
	}
	return shapes
}

// groupRanks builds representative global rank lists for each parallelism
// group under the [TP, CP, PP, DP] layout.
func (ts TrainSim) tpRanks() []int {
	out := make([]int, ts.TP)
	for i := range out {
		out[i] = i
	}
	return out
}

func (ts TrainSim) cpRanks() []int {
	out := make([]int, ts.CP)
	for i := range out {
		out[i] = i * ts.TP
	}
	return out
}

// fsdpRanks returns the combined DP×CP parameter-communication group of
// rank 0: DP stride is tp·cp·pp, CP stride is tp.
func (ts TrainSim) fsdpRanks() []int {
	out := make([]int, 0, ts.CP*ts.DP)
	for d := 0; d < ts.DP; d++ {
		for c := 0; c < ts.CP; c++ {
			out = append(out, d*ts.TP*ts.CP*ts.PP+c*ts.TP)
		}
	}
	return out
}

func (ts TrainSim) ppPeerDistance() int { return ts.TP * ts.CP }

// layerFwdTime returns one transformer layer's forward time for one
// micro-batch on one GPU, including exposed TP and CP communication.
// attnCompute is the attention-path share of compute (QKV and output
// projections plus the attention kernel) — the portion a selective
// recomputation replay re-executes.
func (ts TrainSim) layerFwdTime() (compute, attnCompute, tpComm, cpComm float64) {
	m := ts.Cost
	cfg := ts.Model
	mbs := int64(ts.mbs())
	tokens := mbs * int64(ts.Seq/ts.CP)
	d, h := int64(cfg.Dim), int64(cfg.Hidden)
	hd := int64(cfg.HeadDim())
	nhL := int64(cfg.NHeads / ts.TP)
	nkvL := int64(cfg.NKVHeads / ts.TP)

	attnCompute, compute = m.DenseLayer(tokens, d, h/int64(ts.TP), nhL, nkvL, hd)

	// Attention: balanced causal sharding ⇒ totalPairs/cp per rank, per
	// sample of the micro-batch.
	totalPairs := int64(ts.Seq) * int64(ts.Seq+1) / 2 // causal: Σ_p (p+1)
	kvTokens := mbs * int64(ts.Seq)
	if ts.CP == 1 {
		kvTokens = tokens
	}
	attn := m.Attention(tokens, kvTokens, mbs*totalPairs/int64(ts.CP), nhL, hd)
	compute += attn
	attnCompute += attn

	if ts.TP > 1 {
		// Sequence-parallel TP: all-gather + reduce-scatter around each of
		// the two TP-paired modules — four exposed collectives per layer
		// (§5.2 "TP communication").
		actBytes := 2 * float64(tokens) * float64(d)
		tpComm = 2*ts.allGather(ts.tpRanks(), actBytes) + 2*ts.reduceScatter(ts.tpRanks(), actBytes)
	}
	if ts.CP > 1 {
		kvB := 2 * 2 * float64(mbs) * float64(ts.Seq) * float64(nkvL) * float64(hd)
		cpComm = ts.allGather(ts.cpRanks(), kvB)
	}
	return compute, attnCompute, tpComm, cpComm
}

// stageTimes returns the fwd and bwd time of one micro-batch on one global
// stage from its shape and one layer's layerFwdTime terms.
func (ts TrainSim) stageTimes(sh stageShape, compute, attnCompute, tpComm, cpComm float64) (fwd, bwd float64) {
	m := ts.Cost
	cfg := ts.Model
	tokens := int64(ts.mbs()) * int64(ts.Seq/ts.CP)

	fwd = float64(sh.layers) * (compute + tpComm + cpComm)
	// Backward: 2× compute, mirrored TP collectives, CP reduce-scatter.
	bwd = float64(sh.layers) * (2*compute + tpComm + cpComm)
	switch ts.Recompute {
	case model.RecomputeFull:
		bwd += float64(sh.layers) * compute // replay the whole forward
	case model.RecomputeSelective:
		bwd += float64(sh.layers) * attnCompute // replay the attention path
	}
	if sh.hasEmbed {
		lookup := m.GEMM(tokens, 1, int64(cfg.Dim)) // memory-bound gather
		fwd += lookup
		bwd += lookup
	}
	if sh.hasHead {
		head := m.GEMM(tokens, int64(cfg.Dim), int64(cfg.Vocab)/int64(ts.TP))
		fwd += head
		bwd += 2 * head
	}
	return fwd, bwd
}

// Costs builds the pp cost model for this configuration.
func (ts TrainSim) Costs() pp.Costs {
	shapes := ts.stageShapes()
	fwd := make([]float64, len(shapes))
	bwd := make([]float64, len(shapes))
	compute, attnCompute, tpComm, cpComm := ts.layerFwdTime()
	for g, sh := range shapes {
		fwd[g], bwd[g] = ts.stageTimes(sh, compute, attnCompute, tpComm, cpComm)
	}
	tokens := int64(ts.mbs()) * int64(ts.Seq/ts.CP)
	// Sequence parallelism shards inter-stage activations across TP.
	p2pBytes := 2 * float64(tokens) * float64(ts.Model.Dim) / float64(ts.TP)
	p2p := 0.0
	if ts.PP > 1 {
		p2p = ts.Cost.P2P(0, ts.ppPeerDistance(), p2pBytes)
	}
	return pp.Costs{
		Fwd: func(g int) float64 { return fwd[g] },
		Bwd: func(g int) float64 { return bwd[g] },
		P2P: p2p,
	}
}

// Simulate runs one training step and reports throughput. A configuration
// that cannot run — a non-positive dimension, heads or sequence not divisible
// by its shards, a Schedule of another shape — is an error, not a panic.
func (ts TrainSim) Simulate() (*StepReport, error) {
	if ts.TP < 1 || ts.CP < 1 || ts.PP < 1 || ts.DP < 1 || ts.V < 1 || ts.NMB < 1 || ts.Seq < 1 {
		return nil, fmt.Errorf("engine: tp=%d cp=%d pp=%d dp=%d v=%d nmb=%d seq=%d must all be >= 1",
			ts.TP, ts.CP, ts.PP, ts.DP, ts.V, ts.NMB, ts.Seq)
	}
	if ts.Model.NHeads%ts.TP != 0 || ts.Model.NKVHeads%ts.TP != 0 {
		return nil, fmt.Errorf("engine: heads not divisible by tp=%d", ts.TP)
	}
	if ts.CP > 1 && ts.Seq%(2*ts.CP) != 0 {
		return nil, fmt.Errorf("engine: seq %d not divisible by 2*cp=%d", ts.Seq, 2*ts.CP)
	}
	sched := ts.Schedule
	if sched == nil {
		sched = pp.NewFlexible(ts.PP, ts.V, ts.NMB, ts.NC)
	} else if sched.PP != ts.PP || sched.V != ts.V {
		return nil, fmt.Errorf("engine: schedule pp=%d v=%d, simulation pp=%d v=%d", sched.PP, sched.V, ts.PP, ts.V)
	}
	tl, err := sched.Simulate(ts.Costs())
	if err != nil {
		return nil, err
	}

	// FSDP exposure: all collectives overlap with compute except the first
	// parameter all-gather and the last gradient reduce-scatter (§7.3.1).
	// Each of the V virtual stages pays one all-gather and one reduce-
	// scatter; only one pair of those is exposed.
	perRankParams := float64(ts.Model.LayerParams()) * float64(ts.Model.NLayers) / float64(ts.PP) / float64(ts.TP)
	dpBytes := 2 * perRankParams / float64(ts.V) // one virtual stage's worth
	var gather, scatter, dpExposed, dpTotal float64
	if ts.DP*ts.CP > 1 {
		g := ts.fsdpRanks()
		gather, scatter = ts.allGather(g, dpBytes), ts.reduceScatter(g, 2*dpBytes)
		dpExposed = gather + scatter
		dpTotal = float64(ts.V) * dpExposed
	}

	stepTime := tl.Makespan + dpExposed
	// Model FLOPs (causal attention counted at actual pair count).
	tokens := ts.GlobalBatchTokens()
	flops := 3 * ts.Model.FwdFLOPs(tokens, int64(ts.Seq)/2)
	report := &StepReport{
		StepTime:     stepTime,
		TFLOPsPerGPU: flops / float64(ts.World()) / stepTime / 1e12,
		BubbleRatio:  tl.BubbleRatio(),
		DPExposed:    dpExposed,
		DPCommTotal:  dpTotal,
		DPGather:     gather,
		DPScatter:    scatter,
		PerRankBusy:  tl.Busy,
		Timeline:     tl,
	}
	return report, nil
}

// Production8K returns the short-context production configuration of
// Table 2: 405B model, 8K sequence, tp=8 cp=1 pp=16 dp=128 on 16K GPUs,
// 16M-token batches. The text model assigns roughly one transformer layer
// per virtual stage (v=8 over 16 ranks: 128 stages, zero layers on the embed and head stages).
func Production8K() TrainSim {
	return TrainSim{
		Cost: cost.Default(), Model: model.Llama3_405B(),
		TP: 8, CP: 1, PP: 16, DP: 128,
		V: 8, NC: 16, NMB: 16, // bs = 16 samples per DP group (= pp)
		Seq: 8192, Balanced: true,
	}
}

// Production128K returns the long-context configuration of Table 2:
// tp=8 cp=16 pp=16 dp=8, 131072-token sequences. Document-mask imbalance is
// analysed separately in DocMaskImbalance (Fig 14); the headline TFLOPs
// figure uses full causal accounting like the paper's.
func Production128K() TrainSim {
	return TrainSim{
		Cost: cost.Default(), Model: model.Llama3_405B(),
		TP: 8, CP: 16, PP: 16, DP: 8,
		V: 8, NC: 16, NMB: 16,
		Seq: 131072, Balanced: true,
	}
}
