// Package planner encodes the paper's §5 reasoning as a search: given a
// cluster, a model, a global token budget, and a sequence length, enumerate
// 4D parallelism configurations — together with the execution knobs the
// paper co-designs (virtual stages, ZeRO mode, recomputation policy,
// micro-batch size, comm–compute overlap) — discard the infeasible ones
// (batch-size, divisibility, and memory constraints, with the memory
// estimator configured exactly as the candidate would run), and rank the
// rest by modeled step time. Table 2's production configurations fall out as
// the optima.
//
// Ranking uses the xval closed-form model as its oracle: every candidate's
// step time is priced with the hierarchical NVLink/RoCE tier costs when the
// request carries a host topology, the §7.3.1 overlap adjustment decides how
// much FSDP communication is exposed, and near-tied plans (within TieBand of
// the best step time) are ordered by predicted inter-host bytes per rank —
// the paper's "network-aware" preference that picks tp=8/cp=1 over
// equal-throughput plans that spray traffic across hosts.
package planner

import (
	"fmt"
	"sort"

	"llama4d/internal/core"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics/xval"
	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/sim/cost"
	"llama4d/internal/sim/engine"
	"llama4d/internal/sim/memsim"
)

// Request describes the training job to plan.
type Request struct {
	Cost         cost.Model
	Model        model.Config
	NGPUs        int
	GlobalTokens int64 // tokens per step (16M for Llama 3)
	Seq          int
	HBMBudgetGiB float64 // usable HBM per GPU

	// HostSize, when > 0, is the number of consecutive ranks per host:
	// collectives are priced with the two-level NVLink/RoCE decomposition
	// (cost.HierAllGather &co.) and each plan carries its predicted
	// intra/inter tier byte split. 0 prices every collective flat.
	HostSize int

	// TieBand is the relative step-time band within which plans count as
	// performance-tied and are ordered by inter-host traffic instead
	// (default 0.12 — the paper's §5.1 reasoning tolerates ~10% modeled
	// slack before network topology breaks the tie). Negative disables the
	// band entirely.
	TieBand float64
}

// Production405B returns the Table 2 planning request for the given
// sequence length.
func Production405B(seq int) Request {
	return Request{
		Cost:         cost.Default(),
		Model:        model.Llama3_405B(),
		NGPUs:        16384,
		GlobalTokens: 16 * 1024 * 1024,
		Seq:          seq,
		// 80 GB minus CUDA/NCCL buffers, fragmentation and runtime reserves;
		// the margin that pushed production to pp=16 rather than pp=8.
		HBMBudgetGiB: 66,
		HostSize:     8, // 8×H100 per host, NVLink inside, RoCE across
	}
}

// Candidate is one point of the full search space.
type Candidate struct {
	TP, CP, PP, DP int
	V              int // virtual pipeline stages per rank
	NMB            int // micro-batches per DP group
	MBS            int // samples per micro-batch (NMB·MBS = bs)
	ZeRO           fsdp.Mode
	Recompute      model.RecomputeMode
	Overlap        bool // §7.3.1 comm–compute overlap on
}

// Plan is one feasible configuration with its predicted performance.
type Plan struct {
	TP, CP, PP, DP int
	V, NMB         int
	BS             int // samples per DP group
	MBS            int
	ZeRO           fsdp.Mode
	Recompute      model.RecomputeMode
	Overlap        bool
	HostSize       int

	StepTime       float64
	TFLOPsPerGPU   float64
	HFU            float64 // hardware FLOPs utilisation vs peak BF16
	BubbleRatio    float64
	PeakMemGiB     float64
	ExposedCommSec float64 // FSDP comm not hidden behind compute

	// Predicted per-step issued bytes of rank 0, split by host tier
	// (xval.PredictRank); all intra when the request has no host topology.
	IntraBytesPerRank int64
	InterBytesPerRank int64
	// CollInterBytesPerRank is the bulk-collective subset of
	// InterBytesPerRank (pipeline P2P excluded) — the near-tie ranking key:
	// P2P messages are pairwise and pre-posted, while collectives contend
	// for the cross-host RoCE fabric.
	CollInterBytesPerRank int64

	// CPRing annotates which K/V exchange the Fig 13 model prices cheaper
	// for this plan's full-sequence causal document: true when
	// TransformerEngine's overlap-hidden ring prices strictly below the
	// paper's grouped all-gather (cost.CPRingWins). The functional layer
	// runs the all-gather only; the annotation says where the ring would
	// pay. Always false when CP == 1. CPRingSec and CPAllGatherSec are the two modeled
	// per-document prices behind the decision.
	CPRing                    bool
	CPRingSec, CPAllGatherSec float64
}

func recName(m model.RecomputeMode) string {
	switch m {
	case model.RecomputeSelective:
		return "selective"
	case model.RecomputeFull:
		return "full"
	}
	return "none"
}

func (p Plan) String() string {
	ov := ""
	if !p.Overlap {
		ov = ", no-overlap"
	}
	if p.CPRing {
		ov += ", cp-ring"
	}
	return fmt.Sprintf("tp=%d cp=%d pp=%d dp=%d (v=%d, bs=%d, mbs=%d, %v, rec=%s%s): %.0f TFLOPs/GPU, HFU %.1f%%, %.1f GiB, bubble %.1f%%, inter %.2f GiB/rank",
		p.TP, p.CP, p.PP, p.DP, p.V, p.BS, p.MBS, p.ZeRO, recName(p.Recompute), ov,
		p.TFLOPsPerGPU, 100*p.HFU, p.PeakMemGiB, 100*p.BubbleRatio,
		float64(p.InterBytesPerRank)/(1<<30))
}

// GBSSamples returns the global batch size in samples.
func (r Request) GBSSamples() int { return int(r.GlobalTokens) / r.Seq }

// Band returns the effective ranking tie band.
func (r Request) Band() float64 {
	if r.TieBand < 0 {
		return 0
	}
	if r.TieBand == 0 {
		return 0.12
	}
	return r.TieBand
}

// virtualStages picks the interleaving depth for a pipeline size: as many
// virtual stages as the layer count supports, up to one layer per stage —
// the paper's text-model co-design.
func virtualStages(layers, ppSize int) int {
	if ppSize == 1 {
		return 1
	}
	v := (layers + 2) / ppSize // +2: balanced ends may hold zero layers
	if v < 1 {
		v = 1
	}
	if v > 8 {
		v = 8
	}
	return v
}

// shape validates the (tp, cp, pp) divisibility constraints and derives the
// data-parallel degree and per-group batch.
func (r Request) shape(tp, cp, ppSize int) (dp, bs int, err error) {
	if tp < 1 || cp < 1 || ppSize < 1 {
		return 0, 0, fmt.Errorf("degenerate shape")
	}
	if r.Seq < 1 || r.NGPUs < 1 || r.HostSize < 0 {
		return 0, 0, fmt.Errorf("degenerate request")
	}
	if r.Model.NHeads%tp != 0 || r.Model.NKVHeads%tp != 0 {
		return 0, 0, fmt.Errorf("heads %% tp")
	}
	if r.Model.Vocab%tp != 0 {
		return 0, 0, fmt.Errorf("vocab %% tp")
	}
	if cp > 1 && r.Seq%(2*cp) != 0 {
		return 0, 0, fmt.Errorf("seq %% 2cp")
	}
	world := tp * cp * ppSize
	if r.NGPUs%world != 0 {
		return 0, 0, fmt.Errorf("ngpu %% (tp·cp·pp)")
	}
	dp = r.NGPUs / world
	gbs := r.GBSSamples()
	if gbs < 1 {
		return 0, 0, fmt.Errorf("tokens < seq")
	}
	if gbs%dp != 0 {
		return 0, 0, fmt.Errorf("gbs %% dp")
	}
	bs = gbs / dp
	if bs < 1 {
		return 0, 0, fmt.Errorf("bs < 1") // §5.1's binding constraint
	}
	return dp, bs, nil
}

func (c Candidate) validate(layers int) error {
	if c.V < 1 || c.NMB < 1 || c.MBS < 1 {
		return fmt.Errorf("degenerate candidate")
	}
	if c.PP*c.V > layers+2 {
		return fmt.Errorf("more stages than layers")
	}
	return nil
}

func (c Candidate) nc() int {
	if c.PP < c.NMB {
		return c.PP
	}
	return c.NMB
}

func (c Candidate) topo() core.Topology { return core.Topology{TP: c.TP, CP: c.CP, PP: c.PP, DP: c.DP} }

// sched builds the candidate's pipeline schedule: once per base candidate,
// shared by the memory estimator and the simulation of every ZeRO variant.
func (c Candidate) sched() *pp.Schedule { return pp.NewFlexible(c.PP, c.V, c.NMB, c.nc()) }

// memConfig is the memory-simulator view of a candidate running sched — the
// same Config xval.MemConfig derives from a live cluster built via
// r.Config(c); a test pins the two against each other so the planner's
// memory prune can never drift from what the functional layer actually
// allocates.
func (r Request) memConfig(c Candidate, sched *pp.Schedule) memsim.Config {
	return memsim.Config{
		Model: r.Model, TP: c.TP, CP: c.CP, DP: c.DP, Seq: r.Seq, MBS: c.MBS,
		ZeRO: c.ZeRO, Recompute: c.Recompute, Sched: sched,
		LayerCounts: pp.StageLayerCounts(r.Model.NLayers, sched.Stages(), true),
	}
}

// peakMemGiB runs the memory estimator configured exactly as the candidate
// would run — its actual ZeRO mode, recomputation policy, and micro-batch
// size, not a hardcoded ZeRO-1/MBS=1 proxy.
func (r Request) peakMemGiB(c Candidate, sched *pp.Schedule) float64 {
	return memsim.MaxTotalGiB(r.memConfig(c, sched).PerRank())
}

// Config materialises the candidate as a runnable core.Config on this
// request's model, sequence length, batch, and host topology — the bridge
// the spot-check uses to replay a plan through a functional cluster.
func (r Request) Config(c Candidate) core.Config {
	var ov core.OverlapConfig
	if c.Overlap {
		ov = core.OverlapConfig{Params: 2, Grads: true, P2P: 2}
	}
	return core.Config{
		Model: r.Model,
		Topo:  c.topo(),
		V:     c.V, NMB: c.NMB, NC: c.nc(),
		ZeRO: c.ZeRO, Balanced: true, HostSize: r.HostSize,
		Recompute: c.Recompute,
		Seq:       r.Seq, GBS: r.GBSSamples(),
		LR: 1e-4, Seed: 1, Overlap: ov,
	}
}

// Candidate reconstructs the search point that produced this plan.
func (p Plan) Candidate() Candidate {
	return Candidate{
		TP: p.TP, CP: p.CP, PP: p.PP, DP: p.DP,
		V: p.V, NMB: p.NMB, MBS: p.MBS,
		ZeRO: p.ZeRO, Recompute: p.Recompute, Overlap: p.Overlap,
	}
}

// Config materialises the plan as a runnable core.Config.
func (p Plan) Config(r Request) core.Config { return r.Config(p.Candidate()) }

// simulate prices the candidate's compute/pipeline side on sched; the
// report is shared across ZeRO/overlap variants, which differ only in
// arithmetic on top of it (see price).
func (r Request) simulate(c Candidate, sched *pp.Schedule) (*engine.StepReport, error) {
	ts := engine.TrainSim{
		Cost: r.Cost, Model: r.Model,
		TP: c.TP, CP: c.CP, PP: c.PP, DP: c.DP,
		V: c.V, NC: c.nc(), NMB: c.NMB, MBS: c.MBS,
		Seq: r.Seq, Balanced: true,
		Recompute: c.Recompute, HostSize: r.HostSize,
		Schedule: sched,
	}
	return ts.Simulate()
}

// price turns a base simulation report into a Plan: the §7.3.1 overlap
// adjustment decides how much FSDP communication is exposed, and the ZeRO
// mode adds its extra collective cadence — ZeRO-3's steady-state per-stage
// parameter re-gathers, ZeRO-2's per-round gradient reduce-scatters beyond
// the single step-end one the base simulation already prices. Both are
// multiples of the report's own per-virtual-stage collective prices.
func (r Request) price(c Candidate, rep *engine.StepReport, peak float64, intra, inter, collInter int64) Plan {
	makespan := rep.StepTime - rep.DPExposed
	extra := 0.0
	switch c.ZeRO {
	case fsdp.ZeRO3:
		// Steady state re-gathers every virtual stage's parameters each step
		// (they are released after the optimizer).
		extra = float64(c.V) * rep.DPGather
	case fsdp.ZeRO2:
		// One gradient reduce-scatter per backward micro-batch instead of
		// one per step (the functional layer's cadence, confirmed by the
		// measured byte counts); the base report includes one.
		extra = float64(c.V) * float64(c.NMB-1) * rep.DPScatter
	}
	exposed := rep.DPExposed
	if !c.Overlap {
		exposed = rep.DPCommTotal + extra
	}
	step := makespan + exposed
	tflops := rep.TFLOPsPerGPU * rep.StepTime / step
	var cpRing bool
	var ringSec, agSec float64
	if c.CP > 1 {
		g := c.topo().CPGroupRanks(0)
		qh, kvh, hd := r.Model.NHeads/c.TP, r.Model.NKVHeads/c.TP, r.Model.HeadDim()
		agSec = r.Cost.CPAllGatherTime(g, r.Seq, kvh, hd)
		ringSec = r.Cost.CPRingTime(g, r.Seq, qh, kvh, hd)
		cpRing = r.Cost.CPRingWins(g, r.Seq, qh, kvh, hd)
	}
	return Plan{
		TP: c.TP, CP: c.CP, PP: c.PP, DP: c.DP,
		V: c.V, NMB: c.NMB, BS: c.NMB * c.MBS, MBS: c.MBS,
		ZeRO: c.ZeRO, Recompute: c.Recompute, Overlap: c.Overlap,
		HostSize: r.HostSize,
		StepTime: step, TFLOPsPerGPU: tflops,
		HFU:         tflops / r.Cost.Cluster.GPU.PeakBF16TFLOPs,
		BubbleRatio: rep.BubbleRatio, PeakMemGiB: peak,
		ExposedCommSec:    exposed,
		IntraBytesPerRank: intra, InterBytesPerRank: inter,
		CollInterBytesPerRank: collInter,
		CPRing:                cpRing,
		CPRingSec:             ringSec, CPAllGatherSec: agSec,
	}
}

// tierBytes predicts rank 0's steady-state issued bytes split by host tier
// with the cluster-free xval walk — the exact same arithmetic the
// conformance sweep proves equal to measured traffic. collInter excludes
// the pipeline P2P share of the inter tier.
func (r Request) tierBytes(c Candidate) (intra, inter, collInter int64) {
	rp := xval.PredictRank(r.Config(c), 0, true)
	return rp.IntraBytes, rp.InterBytes, rp.InterBytes - rp.P2PInterBytes
}

// Evaluate builds the plan for one candidate, or an error when a constraint
// fails. The memory prune runs with the candidate's actual ZeRO, recompute,
// and micro-batch configuration.
func (r Request) Evaluate(c Candidate) (*Plan, error) {
	dp, bs, err := r.shape(c.TP, c.CP, c.PP)
	if err != nil {
		return nil, err
	}
	if dp != c.DP {
		return nil, fmt.Errorf("dp=%d, shape needs %d", c.DP, dp)
	}
	if err := c.validate(r.Model.NLayers); err != nil {
		return nil, err
	}
	if c.NMB*c.MBS != bs {
		return nil, fmt.Errorf("nmb·mbs %d != bs %d", c.NMB*c.MBS, bs)
	}
	sched := c.sched()
	peak := r.peakMemGiB(c, sched)
	if peak > r.HBMBudgetGiB {
		return nil, fmt.Errorf("needs %.1f GiB > %.1f budget", peak, r.HBMBudgetGiB)
	}
	rep, err := r.simulate(c, sched)
	if err != nil {
		return nil, err
	}
	intra, inter, collInter := r.tierBytes(c)
	p := r.price(c, rep, peak, intra, inter, collInter)
	return &p, nil
}

// Feasible builds the plan for one (tp, cp, pp) choice under the seed-era
// defaults (paper-depth interleaving, single-sample micro-batches, ZeRO-1,
// no recomputation, overlap on), or an error when a constraint fails. The
// full-space entry point is Evaluate/SearchWithStats.
func (r Request) Feasible(tp, cp, ppSize int) (*Plan, error) {
	dp, bs, err := r.shape(tp, cp, ppSize)
	if err != nil {
		return nil, err
	}
	return r.Evaluate(Candidate{
		TP: tp, CP: cp, PP: ppSize, DP: dp,
		V: virtualStages(r.Model.NLayers, ppSize), NMB: bs, MBS: 1,
		ZeRO: fsdp.ZeRO1, Recompute: model.RecomputeNone, Overlap: true,
	})
}

// Stats counts the fate of every enumerated search point. A shape whose
// divisibility fails is counted once (its inner knob space is never
// expanded); shapes that pass expand into their full knob cross-product.
type Stats struct {
	Enumerated   int
	PrunedShape  int // divisibility / batch-size failures
	PrunedMemory int // memsim peak above the HBM budget
	Feasible     int
}

var (
	tpLadder = []int{1, 2, 4, 8} // tp ≤ 8: stay on NVLink (§5.1)
	cpLadder = []int{1, 2, 4, 8, 16, 32}
	ppLadder = []int{1, 2, 4, 8, 16, 32}
	vLadder  = []int{1, 2, 4, 8}
	mbsList  = []int{1, 2}
	zeroList = []fsdp.Mode{fsdp.ZeRO1, fsdp.ZeRO2, fsdp.ZeRO3}
	recList  = []model.RecomputeMode{model.RecomputeNone, model.RecomputeSelective, model.RecomputeFull}
)

// SearchWithStats enumerates the full space and returns every feasible plan,
// ranked, with the enumeration accounting: fastest modeled step time first,
// except that plans within the tie band of the best are ordered by predicted
// inter-host bytes per rank (cheapest network footprint wins a near-tie),
// with a total deterministic tie-break after that. The first entry is the
// recommended plan.
func SearchWithStats(r Request) ([]Plan, Stats) {
	var plans []Plan
	var st Stats
	for _, tp := range tpLadder {
		for _, cp := range cpLadder {
			for _, ppSize := range ppLadder {
				dp, bs, err := r.shape(tp, cp, ppSize)
				if err != nil {
					st.Enumerated++
					st.PrunedShape++
					continue
				}
				for _, v := range vLadder {
					if ppSize == 1 && v > 1 {
						continue
					}
					if ppSize*v > r.Model.NLayers+2 {
						continue
					}
					for _, mbs := range mbsList {
						if bs%mbs != 0 {
							st.Enumerated++
							st.PrunedShape++
							continue
						}
						for _, rec := range recList {
							base := Candidate{
								TP: tp, CP: cp, PP: ppSize, DP: dp,
								V: v, NMB: bs / mbs, MBS: mbs, Recompute: rec,
							}
							// One schedule and one simulation serve every
							// (ZeRO, overlap) variant: they differ only in
							// pricing arithmetic on top of the report.
							sched := base.sched()
							var rep *engine.StepReport
							for _, zero := range zeroList {
								c := base
								c.ZeRO = zero
								// Memory and issued bytes are
								// overlap-invariant (overlap only moves
								// collectives nonblocking): prune and
								// predict once per ZeRO mode.
								st.Enumerated += 2
								peak := r.peakMemGiB(c, sched)
								if peak > r.HBMBudgetGiB {
									st.PrunedMemory += 2
									continue
								}
								if rep == nil {
									rep, err = r.simulate(c, sched)
									if err != nil {
										st.PrunedShape += 2
										continue
									}
								}
								intra, inter, collInter := r.tierBytes(c)
								for _, overlap := range []bool{true, false} {
									c.Overlap = overlap
									plans = append(plans, r.price(c, rep, peak, intra, inter, collInter))
									st.Feasible++
								}
							}
						}
					}
				}
			}
		}
	}
	rankPlans(plans, r.Band())
	return plans, st
}

// rankPlans orders plans fastest-first with the tie-band network preference.
// sort.SliceStable plus the exhaustive integer tie-break makes the output
// byte-identical across runs.
func rankPlans(plans []Plan, band float64) {
	if len(plans) == 0 {
		return
	}
	best := plans[0].StepTime
	for _, p := range plans[1:] {
		if p.StepTime < best {
			best = p.StepTime
		}
	}
	cut := best * (1 + band)
	sort.SliceStable(plans, func(i, j int) bool { return planLess(plans[i], plans[j], cut) })
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// planLess orders two plans. Outside the tie band, faster modeled step time
// wins. Inside it, the paper's §5.1/§3.1.3 decision chain breaks the
// near-tie: acceptable pipeline bubble first (bs ≥ pp), then the least
// aggressive setting of every co-design knob that still holds the band —
// minimal context parallelism (CP exists for long context, not throughput),
// minimal ZeRO stage (deeper resharding only under memory pressure),
// minimal recomputation, the shallowest pipeline that fits — and finally
// the smallest predicted inter-host collective traffic.
func planLess(a, b Plan, cut float64) bool {
	inA, inB := a.StepTime <= cut, b.StepTime <= cut
	if inA != inB {
		return inA
	}
	if inA {
		if ba, bb := a.BS >= a.PP, b.BS >= b.PP; ba != bb {
			return ba
		}
		if a.CP != b.CP {
			return a.CP < b.CP
		}
		if a.ZeRO != b.ZeRO {
			return a.ZeRO < b.ZeRO
		}
		if a.Recompute != b.Recompute {
			return a.Recompute < b.Recompute
		}
		if a.PP != b.PP {
			return a.PP < b.PP
		}
		if a.CollInterBytesPerRank != b.CollInterBytesPerRank {
			return a.CollInterBytesPerRank < b.CollInterBytesPerRank
		}
	}
	if a.StepTime != b.StepTime {
		return a.StepTime < b.StepTime
	}
	ka := [...]int{a.TP, a.CP, a.PP, a.DP, a.V, a.NMB, a.MBS, int(a.ZeRO), int(a.Recompute), boolInt(!a.Overlap)}
	kb := [...]int{b.TP, b.CP, b.PP, b.DP, b.V, b.NMB, b.MBS, int(b.ZeRO), int(b.Recompute), boolInt(!b.Overlap)}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

// PaperPlan reproduces the paper's §5.1 decision chain literally, rather
// than searching:
//
//  1. tp = 8 — the global batch forces bs ≥ 1 ⇒ tp ≥ 8, and NVLink bounds
//     tp ≤ 8 (one host).
//  2. cp = seq/8192 for long contexts, so each rank still sees an 8K slice;
//     1 otherwise. CP replaces DP, never TP or PP.
//  3. pp = the smallest pipeline size that fits memory with bs ≥ pp for
//     acceptable bubbles.
//  4. dp = whatever remains.
//
// For the production request this returns exactly Table 2's rows.
func PaperPlan(r Request) (*Plan, error) {
	tp := 8
	cp := 1
	if r.Seq > 16384 {
		cp = r.Seq / 8192
	}
	for _, ppSize := range []int{2, 4, 8, 16, 32} {
		p, err := r.Feasible(tp, cp, ppSize)
		if err != nil {
			continue
		}
		if p.BS < ppSize {
			continue // unacceptable bubble (§5.1)
		}
		return p, nil
	}
	return nil, fmt.Errorf("planner: no feasible paper-style plan for %+v", r)
}

// TPCapacityPoint is one row of the §8.1 HBM-capacity study.
type TPCapacityPoint struct {
	TP           int
	TFLOPsPerGPU float64
	PeakMemGiB   float64
	Feasible80GB bool
}

// TPCapacityStudy reproduces §8.1's "higher HBM capacity can improve
// performance" observation: dropping TP from 8 to 4 amortises TP
// communication better (≈10% end-to-end in the paper's small-scale 2K-GPU
// runs) — but the tp=4 configuration only fits if the accelerator carries
// more HBM than the production budget.
func TPCapacityStudy(ngpu int) []TPCapacityPoint {
	req := Production405B(8192)
	req.NGPUs = ngpu
	budget := req.HBMBudgetGiB
	req.HBMBudgetGiB = 1 << 20 // unconstrained: we report the footprint
	var out []TPCapacityPoint
	for _, tp := range []int{8, 4} {
		p, err := req.Feasible(tp, 1, 16)
		if err != nil {
			continue
		}
		out = append(out, TPCapacityPoint{
			TP: tp, TFLOPsPerGPU: p.TFLOPsPerGPU, PeakMemGiB: p.PeakMemGiB,
			Feasible80GB: p.PeakMemGiB <= budget,
		})
	}
	return out
}
