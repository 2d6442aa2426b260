package main

import (
	"llama4d/internal/core"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/planner"
	"llama4d/internal/serve"
	"llama4d/internal/sim/cost"
)

// metricSpec mirrors one entry of BENCHMARK.json; bench_test.go holds the
// two in step. Bound is set on end-to-end metrics only. Exact marks a count
// the program makes that must repeat bit for bit under one seed.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// gomaxprocs pins the Go scheduler, so a result does not depend on how many
// cores the host happens to show.
const gomaxprocs = 2

// The workloads. Names are fixed: later changes are accepted or rejected by
// them. Sizes are chosen so that one op takes well under a second (a search
// or a serving load: one to two seconds) on two cores, and so that the amount
// of work does not depend on the seed: a run's metrics are compared with
// runs under other seeds, so the seed may change what the inputs hold but
// not how much they cost.

var train4D = trainSpec{
	cfg: core.Config{
		Model: model.Config{Vocab: 1024, Dim: 64, Hidden: 192, NHeads: 8, NKVHeads: 4, NLayers: 8, MaxSeq: 128, RopeBase: 10000},
		Topo:  core.Topology{TP: 2, CP: 2, PP: 2, DP: 2},
		V:     2, NMB: 4, NC: 2, ZeRO: fsdp.ZeRO1, HostSize: 8,
		Seq: 128, GBS: 8, LR: 1e-3, UseDocMask: true,
		Overlap: core.OverlapConfig{P2P: 2},
	},
	avgDocLen: 32,
}

var trainLongCtx = trainSpec{
	cfg: core.Config{
		Model: model.Config{Vocab: 512, Dim: 64, Hidden: 128, NHeads: 4, NKVHeads: 2, NLayers: 2, MaxSeq: 2048, RopeBase: 10000},
		Topo:  core.Topology{TP: 1, CP: 2, PP: 1, DP: 1},
		V:     1, NMB: 1, NC: 1, ZeRO: fsdp.ZeRO1,
		Seq: 2048, GBS: 1, LR: 1e-3, UseDocMask: true,
	},
	avgDocLen: 512, longDocFrac: 0.2,
	// A sample's attention cost follows its document layout, from a third of
	// the causal sweep to all of it. The steps are picked at a fixed cost,
	// near the corpus median.
	sweptPairs: 600_000, // of 1,081,344 for a single document
}

var train1Rank = trainSpec{
	cfg: core.Config{
		Model: model.Config{Vocab: 4096, Dim: 256, Hidden: 768, NHeads: 8, NKVHeads: 4, NLayers: 4, MaxSeq: 128, RopeBase: 10000},
		Topo:  core.Topology{TP: 1, CP: 1, PP: 1, DP: 1},
		V:     1, NMB: 1, NC: 1, ZeRO: fsdp.ZeRO1,
		Seq: 128, GBS: 1, LR: 1e-3,
	},
	avgDocLen: 32,
}

var serveModel = model.Config{Vocab: 4096, Dim: 384, Hidden: 1024, NHeads: 8, NKVHeads: 4, NLayers: 4, MaxSeq: 512, RopeBase: 10000}

var serveDecode = serveSpec{
	model:    serveModel,
	load:     serve.Workload{Requests: 40, PromptMin: 4, PromptMax: 8, MaxNewMin: 16, MaxNewMax: 32, ArrivalSpan: 10, Seed: 1},
	opts:     serve.Options{PageSize: 16},
	maxBatch: 32,
}

var servePrefill = serveSpec{
	model: serveModel,
	load:  serve.Workload{Requests: 12, PromptMin: 113, PromptMax: 128, MaxNewMin: 4, MaxNewMax: 8, ArrivalSpan: 4, Seed: 1},
	// The page pool, not maxBatch, caps concurrency. Every prompt takes eight
	// pages in each of the four layers and the budget is four prompts' worth
	// with none to spare, so with four sequences running, the first to
	// generate into a ninth page has the youngest preempted.
	opts:     serve.Options{PageSize: 16, PageBudget: 4 * 4 * 8},
	maxBatch: 8,
	ttft:     true,
	preempts: true,
}

// planRequest is Llama 3 70B on n GPUs at 8K context: the production
// request's cost model, memory budget and host size, at a scale whose
// full-space search takes about a second.
func planRequest(ngpus int, globalTokens int64) planner.Request {
	return planner.Request{
		Cost: cost.Default(), Model: model.Llama3_70B(),
		NGPUs: ngpus, GlobalTokens: globalTokens, Seq: 8192,
		HBMBudgetGiB: 66, HostSize: 8,
	}
}

var planSearch = planSpec{
	req:  planRequest(64, 256<<10),
	warm: planRequest(32, 128<<10),
}

var workloads = []workload{
	{
		name:    "train-4d",
		why:     "16 ranks TP2 CP2 PP2 DP2, every GEMM below the parallel threshold: collectives, pipeline P2P and rank scheduling do most of the work",
		latency: "TryStep wall time", work: "tokens trained",
		open: train4D.open,
	},
	{
		name:    "train-longctx",
		why:     "2 ranks CP2 at 2048 tokens under a document mask: blocked attention and the CP K/V exchange dominate; TP, PP and FSDP do nothing",
		latency: "TryStep wall time", work: "tokens trained",
		open: trainLongCtx.open,
	},
	{
		name:    "train-1rank",
		why:     "plain single-worker baseline, causal mask: GEMMs above the parallel threshold and the optimizer; an attention or comm change must not move it",
		latency: "TryStep wall time", work: "tokens trained",
		open: train1Rank.open,
	},
	{
		name:    "serve-decode",
		why:     "short prompts, long generations, batch up to 32: batched one-token steps, KV reads and weight-streaming GEMMs; closed tick-driven loop",
		latency: "median gap between a sequence's consecutive tokens", work: "prompt+generated tokens of completed requests",
		open: serveDecode.open,
	},
	{
		name:    "serve-prefill",
		why:     "long prompts, short generations, page pool caps concurrency: packed ragged prefill, KV writes, admission and preemption; a decode gain that costs prefill shows here",
		latency: "median time to first token", work: "prompt+generated tokens of completed requests",
		open: servePrefill.open,
	},
	{
		name:    "plan-search",
		why:     "full-space planner search, Llama 3 70B on 64 GPUs: planner, sim/engine, memsim and pp.Simulate do the work; kernels and collectives do nothing",
		latency: "SearchWithStats wall time", work: "candidates enumerated",
		open: planSearch.open,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var endToEnd = []metricSpec{
	{Name: "latency_ms_q1", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s_q3", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists every per-layer metric. A traced run reports all of them;
// a layer the workload bypasses reports 0. Probes (isolated public calls at
// the workloads' shapes) run in every traced run.
var perLayer = []metricSpec{
	// Any workload: the traced pass itself.
	{Name: "run.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},

	// Train workloads, from metrics.Registry step reports: shares of step
	// wall time averaged over ranks and traced steps; counts from step 1.
	{Name: "core.compute_share", Unit: "ratio", Better: "higher"},
	{Name: "core.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "core.accounted_share", Unit: "ratio", Better: "higher"},
	{Name: "core.straggler_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.loss_step1", Unit: "nats", Better: "lower", Exact: true},
	{Name: "pp.p2p_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "pp.peak_activation_mb", Unit: "MB", Better: "lower"},
	{Name: "pp.peak_live_contexts", Unit: "count", Better: "lower", Exact: true},
	{Name: "comm.blocking_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.exposed_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.overlap_share", Unit: "ratio", Better: "higher"},
	{Name: "comm.tp_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "comm.cp_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "comm.dp_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "comm.p2p_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "comm.inter_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "comm.msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "tensor.flops", Unit: "flop", Better: "lower", Exact: true},
	{Name: "tensor.achieved_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "tensor.pool_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "attention.eff_flop_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "attention.tile_skip_share", Unit: "ratio", Better: "higher", Exact: true},

	// Serve workloads, from the bench-side Runner wrapper and tick spans.
	{Name: "serve.prefill_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.decode_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.sched_self_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.decode_batch_mean", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.ticks", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.decode_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.prefill_tokens", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.reprefill_token_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "serve.ttft_ticks_p50", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.kv_occupancy_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "serve.kv_peak_pages", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.preemptions", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.kv_leaked_pages", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.output_hash", Unit: "hash", Better: "lower", Exact: true},

	// Planner workload, from SearchWithStats.
	{Name: "planner.enumerated", Unit: "count", Better: "lower", Exact: true},
	{Name: "planner.pruned_shape", Unit: "count", Better: "higher", Exact: true},
	{Name: "planner.pruned_memory", Unit: "count", Better: "higher", Exact: true},
	{Name: "planner.feasible", Unit: "count", Better: "lower", Exact: true},
	{Name: "planner.rank_hash", Unit: "hash", Better: "lower", Exact: true},
}

func init() {
	for _, p := range probes {
		perLayer = append(perLayer, metricSpec{Name: p.name, Unit: p.unit, Better: p.better})
	}
}
