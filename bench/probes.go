package main

import (
	"math/rand"
	"time"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/optim"
	"llama4d/internal/pp"
	"llama4d/internal/serve"
	"llama4d/internal/sim/engine"
	"llama4d/internal/sim/memsim"
	"llama4d/internal/tensor"
	"llama4d/internal/tp"
)

// A probe times one layer's public calls in isolation, at the shape a
// workload uses them at. Its inputs are fixed (probeSeed), so two runs probe
// identical work whatever --seed says.
type probe struct {
	name, unit, better string
	// prepare builds the inputs. It returns the call to time, an optional
	// untimed step run before every call, and the conversion from median
	// seconds per call to the metric's value.
	prepare func() (call, before func(), value func(sec float64) float64)
}

const (
	probeSeed    = 1
	probeWarmups = 1
	probeMinimum = 3 // timed calls, whatever the time budget
)

// run returns the probe's value from the median of at most maxCalls timed
// calls, stopping early once budget is spent.
func (p probe) run(maxCalls int, budget time.Duration) float64 {
	call, before, value := p.prepare()
	var secs []float64
	start := time.Now()
	for i := 0; i < probeWarmups+maxCalls; i++ {
		if n := i - probeWarmups; n >= probeMinimum && time.Since(start) > budget {
			break
		}
		if before != nil {
			before()
		}
		t0 := time.Now()
		call()
		if d := time.Since(t0); i >= probeWarmups {
			secs = append(secs, d.Seconds())
		}
	}
	return value(median(secs))
}

func ms(sec float64) float64 { return sec * 1e3 }
func us(sec float64) float64 { return sec * 1e6 }

// per converts seconds per call to the given unit per item, for calls that
// batch n items to rise above the clock's resolution.
func per(unit func(float64) float64, n int) func(float64) float64 {
	return func(sec float64) float64 { return unit(sec) / float64(n) }
}

func gflops(m, k, n int) func(float64) float64 {
	return func(sec float64) float64 { return 2 * float64(m) * float64(k) * float64(n) / sec / 1e9 }
}

func randn(rng *rand.Rand, shape ...int) *tensor.Tensor { return tensor.RandN(rng, 1, shape...) }

// matmulProbe times C = op(A, B) for an [m,k]·[k,n] product.
func matmulProbe(name string, m, k, n int, op func(a, b *tensor.Tensor) *tensor.Tensor, aShape, bShape [2]int) probe {
	return probe{name: name, unit: "gflop/s", better: "higher", prepare: func() (func(), func(), func(float64) float64) {
		rng := rand.New(rand.NewSource(probeSeed))
		a, b := randn(rng, aShape[0], aShape[1]), randn(rng, bShape[0], bShape[1])
		return func() { tensor.Put(op(a, b)) }, nil, gflops(m, k, n)
	}}
}

// attnInputs builds one head's Q, K, V and the mask of a workload's sample.
func attnInputs(t trainSpec) (q, k, v *tensor.Tensor, mask attention.Mask, qPos []int) {
	rng := rand.New(rand.NewSource(probeSeed))
	seq, hd := t.cfg.Seq, t.cfg.Model.HeadDim()
	mask = attention.Causal{}
	if t.cfg.UseDocMask {
		gen := &data.Generator{Vocab: t.cfg.Model.Vocab, Seq: seq, AvgDocLen: t.avgDocLen, Seed: probeSeed, LongDocFrac: t.longDocFrac}
		mask = attention.Document{DocID: gen.Sample(0).DocIDs}
	}
	return randn(rng, seq, hd), randn(rng, seq, hd), randn(rng, seq, hd), mask, attention.Iota(seq)
}

func attnProbes(suffix string, t trainSpec) []probe {
	fwd := probe{name: "attention.fwd_ms." + suffix, unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
		q, k, v, mask, qPos := attnInputs(t)
		return func() {
			out := attention.Forward(q, k, v, mask, qPos, 0)
			tensor.Put(out.O, out.P)
		}, nil, ms
	}}
	bwd := probe{name: "attention.bwd_ms." + suffix, unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
		q, k, v, mask, qPos := attnInputs(t)
		out := attention.Forward(q, k, v, mask, qPos, 0)
		dO := randn(rand.New(rand.NewSource(probeSeed+1)), q.Rows(), q.Cols())
		return func() {
			dQ, dK, dV := attention.Backward(q, k, v, out.P, dO, mask, qPos, 0)
			tensor.Put(dQ, dK, dV)
		}, nil, ms
	}}
	return []probe{fwd, bwd}
}

// spmd times body run once per rank of a fresh world of the given size.
// Each call issues `batch` collectives back to back, so goroutine start-up
// is amortised; value is per collective.
const commBatch = 16

func commProbe(name string, world, hostSize int, elems int, issue func(g *comm.Group, w *comm.World, rank int, x *tensor.Tensor)) probe {
	return probe{name: name, unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
		w := comm.NewWorld(world)
		w.Topo = comm.Topology{HostSize: hostSize}
		ranks := make([]int, world)
		xs := make([]*tensor.Tensor, world)
		rng := rand.New(rand.NewSource(probeSeed))
		for i := range ranks {
			ranks[i] = i
			xs[i] = randn(rng, elems)
		}
		g := w.NewGroup(ranks)
		g.Label = "probe"
		return func() {
			mustSPMD(w, func(rank int) {
				for i := 0; i < commBatch; i++ {
					issue(g, w, rank, xs[rank])
				}
			})
		}, nil, per(us, commBatch)
	}}
}

func mustSPMD(w *comm.World, body func(rank int)) {
	if err := w.RunSPMD(body); err != nil {
		panic(err) // fixed inputs on a healthy world: only a bug gets here
	}
}

// twoRanks returns a fresh 2-rank world and its one group.
func twoRanks(label string) (*comm.World, *comm.Group) {
	w := comm.NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	g.Label = label
	return w, g
}

var serveProbeEngine *serve.Engine

// serveEngine builds the serve workloads' model once for both engine probes.
func serveEngine() *serve.Engine {
	if serveProbeEngine == nil {
		m := model.New(serveModel, rand.New(rand.NewSource(probeSeed)))
		serveProbeEngine = serve.NewEngine(m, serveDecode.opts)
	}
	return serveProbeEngine
}

func prompts(n, length int) []*serve.Request {
	rng := rand.New(rand.NewSource(probeSeed))
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		p := make([]int, length)
		for j := range p {
			p[j] = rng.Intn(serveModel.Vocab)
		}
		reqs[i] = &serve.Request{ID: i, Prompt: p, MaxNew: 1}
	}
	return reqs
}

var (
	m1 = train1Rank.cfg.Model
	m4 = train4D.cfg.Model
	ml = trainLongCtx.cfg.Model
)

var probes = func() []probe {
	ps := []probe{
		// tensor: the GEMM shapes of the workloads. ffn and head are above
		// the row-parallel threshold, small and decode below it.
		matmulProbe("tensor.matmul_gflops.ffn", 128, m1.Dim, m1.Hidden, tensor.MatMul, [2]int{128, m1.Dim}, [2]int{m1.Dim, m1.Hidden}),
		matmulProbe("tensor.matmul_gflops.head", 128, m1.Dim, m1.Vocab, tensor.MatMul, [2]int{128, m1.Dim}, [2]int{m1.Dim, m1.Vocab}),
		matmulProbe("tensor.matmul_gflops.small", 64, m4.Dim, m4.Hidden, tensor.MatMul, [2]int{64, m4.Dim}, [2]int{m4.Dim, m4.Hidden}),
		matmulProbe("tensor.matmul_gflops.decode", 32, serveModel.Dim, serveModel.Hidden, tensor.MatMul, [2]int{32, serveModel.Dim}, [2]int{serveModel.Dim, serveModel.Hidden}),
		matmulProbe("tensor.matmult_gflops.ffn", 128, m1.Hidden, m1.Dim, tensor.MatMulT, [2]int{128, m1.Hidden}, [2]int{m1.Dim, m1.Hidden}),
		matmulProbe("tensor.tmatmul_gflops.ffn", m1.Dim, 128, m1.Hidden, tensor.TMatMul, [2]int{128, m1.Dim}, [2]int{128, m1.Hidden}),
		{name: "tensor.pool_getput_ns", unit: "ns", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			const n = 1000
			return func() {
				for i := 0; i < n; i++ {
					tensor.Put(tensor.GetUninit(128, m1.Dim))
				}
			}, nil, per(func(s float64) float64 { return s * 1e9 }, n)
		}},
	}
	// attention: one head of train-longctx's sample and of train-1rank's.
	ps = append(ps, attnProbes("doc2048", trainLongCtx)...)
	ps = append(ps, probe{name: "attention.partial_fwd_ms.doc2048", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
		q, k, v, mask, qPos := attnInputs(trainLongCtx)
		var scratch *attention.Partial
		return func() { scratch = attention.PartialForwardInto(scratch, q, k, v, mask, qPos, 0) }, nil, ms
	}})
	ps = append(ps, attnProbes("causal128", train1Rank)...)

	ps = append(ps,
		// model, optim: train-1rank's block, head and optimizer update.
		probe{name: "model.block_fwd_ms", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			rng := rand.New(rand.NewSource(probeSeed))
			b := model.NewBlock("probe", m1, rng)
			x, env := randn(rng, 128, m1.Dim), model.SeqEnv(128, attention.Causal{})
			return func() { b.Forward(x, env) }, nil, ms
		}},
		probe{name: "model.block_bwd_ms", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			rng := rand.New(rand.NewSource(probeSeed))
			b := model.NewBlock("probe", m1, rng)
			x, dy, env := randn(rng, 128, m1.Dim), randn(rng, 128, m1.Dim), model.SeqEnv(128, attention.Causal{})
			var ctx any
			return func() { tensor.Put(b.Backward(ctx, dy)) }, func() { _, ctx = b.Forward(x, env) }, ms
		}},
		probe{name: "model.head_loss_ms", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			rng := rand.New(rand.NewSource(probeSeed))
			h := model.NewHead("probe", m1.Dim, m1.Vocab, rng)
			x, env := randn(rng, 128, m1.Dim), model.SeqEnv(128, attention.Causal{})
			targets := make([]int, 128)
			for i := range targets {
				targets[i] = rng.Intn(m1.Vocab)
			}
			return func() {
				_, ctx := h.ForwardLoss(x, targets, 1, env)
				tensor.Put(h.BackwardLoss(ctx))
			}, nil, ms
		}},
		probe{name: "optim.adamw_ns_per_param", unit: "ns", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			const n = 1 << 20
			rng := rand.New(rand.NewSource(probeSeed))
			w, g := randn(rng, n), randn(rng, n)
			opt := optim.NewAdamW(1e-3)
			return func() { opt.Tick(); opt.Step(0, w.Data, g.Data) }, nil, per(func(s float64) float64 { return s * 1e9 }, n)
		}},

		// comm: the collectives of the workloads at their message sizes.
		// w2: a TP activation all-reduce of train-4d; w16: its world loss
		// all-reduce, flat and two-level (HostSize 8).
		commProbe("comm.allreduce_us.w2", 2, 0, 64*m4.Dim, func(g *comm.Group, _ *comm.World, r int, x *tensor.Tensor) {
			tensor.Put(g.AllReduce(r, x))
		}),
		commProbe("comm.allreduce_us.w16", 16, 0, 1, func(g *comm.Group, _ *comm.World, r int, x *tensor.Tensor) {
			tensor.Put(g.AllReduce(r, x))
		}),
		commProbe("comm.allreduce_us.w16h8", 16, 8, 1, func(g *comm.Group, _ *comm.World, r int, x *tensor.Tensor) {
			tensor.Put(g.AllReduce(r, x))
		}),
		// train-longctx's CP K/V all-gather: half the sequence, all KV heads.
		commProbe("comm.allgather_us.w2", 2, 0, trainLongCtx.cfg.Seq/2*ml.NKVHeads*ml.HeadDim(), func(g *comm.Group, _ *comm.World, r int, x *tensor.Tensor) {
			tensor.Put(g.AllGather(r, x))
		}),
		// train-4d's gradient reduce-scatter: one block's parameters.
		commProbe("comm.reducescatter_us.w2", 2, 0, int(m4.LayerParams())/2, func(g *comm.Group, _ *comm.World, r int, x *tensor.Tensor) {
			tensor.Put(g.ReduceScatter(r, x))
		}),
		// train-4d's pipeline hop: one micro-batch's activations.
		commProbe("comm.sendrecv_us", 2, 0, 64*m4.Dim, func(_ *comm.Group, w *comm.World, r int, x *tensor.Tensor) {
			if r == 0 {
				w.Send(0, 1, 0, x)
			} else {
				tensor.Put(w.Recv(1, 0, 0))
			}
		}),

		// tp, cp, fsdp: one layer of each parallelism on two ranks.
		probe{name: "tp.block_ms.tp2", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			w, g := twoRanks("tp")
			rng := rand.New(rand.NewSource(probeSeed))
			full := model.NewBlock("probe", m4, rng)
			x, dy, env := randn(rng, 64, m4.Dim), randn(rng, 64, m4.Dim), model.SeqEnv(64, attention.Causal{})
			blocks := []*model.Block{tp.ShardBlock(full, &tp.Ctx{Group: g, Rank: 0}), tp.ShardBlock(full, &tp.Ctx{Group: g, Rank: 1})}
			return func() {
				mustSPMD(w, func(r int) {
					y, ctx := blocks[r].Forward(x, env)
					tensor.Put(y, blocks[r].Backward(ctx, dy))
				})
			}, nil, ms
		}},
		probe{name: "cp.attn_ms.cp2", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			w, g := twoRanks("cp")
			rng := rand.New(rand.NewSource(probeSeed))
			seq := trainLongCtx.cfg.Seq
			sh := cp.NewSharding(seq, 2)
			_, _, _, mask, _ := attnInputs(trainLongCtx)
			x, dy := randn(rng, seq/2, ml.Dim), randn(rng, seq/2, ml.Dim)
			var attn [2]*model.Attention // one replica per rank: backward accumulates into its grads
			var envs [2]*model.Env
			for r := range attn {
				attn[r] = model.NewAttention("probe", ml.Dim, ml.NHeads, ml.NKVHeads, ml.HeadDim(), ml.RopeBase, rand.New(rand.NewSource(probeSeed)))
				envs[r] = cp.Env(sh, mask, g, r)
			}
			return func() {
				mustSPMD(w, func(r int) {
					y, ctx := attn[r].Forward(x, envs[r])
					tensor.Put(y, attn[r].Backward(ctx, dy))
				})
			}, nil, ms
		}},
		probe{name: "fsdp.step_ms.dp2", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			w, g := twoRanks("dp")
			var shards [2]*fsdp.Sharded
			var opts [2]*optim.AdamW
			for r := range shards {
				rng := rand.New(rand.NewSource(probeSeed))
				var units [][]*model.Param
				for i := 0; i < m4.NLayers/2; i++ { // one PP rank's blocks
					units = append(units, model.NewBlock("probe", m4, rng).Params())
				}
				opts[r] = optim.NewAdamW(1e-3)
				shards[r] = fsdp.NewSharded(g, r, fsdp.ZeRO1, units, opts[r])
			}
			return func() {
					mustSPMD(w, func(r int) {
						opts[r].Tick()
						shards[r].Step()
					})
				}, func() {
					for r := range shards {
						for _, p := range shards[r].Params() {
							p.G.Fill(1e-3)
						}
					}
				}, ms
		}},

		probe{name: "data.global_batch_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			gen := &data.Generator{Vocab: m4.Vocab, Seq: train4D.cfg.Seq, AvgDocLen: train4D.avgDocLen, Seed: probeSeed}
			step := int64(0)
			return func() { gen.GlobalBatch(step, train4D.cfg.GBS); step++ }, nil, us
		}},

		// serve: the KV-cache's page bookkeeping and the engine's two entry
		// points, without the scheduler's queueing around them.
		probe{name: "serve.kv_reserve_release_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			kv := serve.NewKVCache(serveModel.NLayers, 16, serveModel.NKVHeads*serveModel.HeadDim(), 1024)
			return func() {
				s := kv.NewSeq()
				kv.Reserve(s, 128)
				kv.Release(s)
			}, nil, us
		}},
		probe{name: "serve.kv_append_gather_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			const n = 64
			width := serveModel.NKVHeads * serveModel.HeadDim()
			kv := serve.NewKVCache(1, 16, width, 64)
			rng := rand.New(rand.NewSource(probeSeed))
			k, v := randn(rng, n, width), randn(rng, n, width)
			kDst, vDst := tensor.New(n, width), tensor.New(n, width)
			s := kv.NewSeq()
			kv.Reserve(s, n)
			return func() {
				kv.Append(s, 0, k, v, 0, n)
				kv.Gather(s, 0, n, kDst, vDst)
			}, nil, us
		}},
		probe{name: "serve.decode_ms.b32", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			// 32 sequences admitted in one prefill tick; every later tick
			// is one batched decode step over a history that grows by one.
			e := serveEngine()
			reqs := prompts(32, 8)
			for _, r := range reqs {
				r.MaxNew = serveModel.MaxSeq - len(r.Prompt)
			}
			sched := serve.NewScheduler(e.KV, e, 32)
			if err := sched.Submit(reqs...); err != nil {
				panic(err)
			}
			sched.Step()
			return func() { sched.Step() }, nil, ms
		}},
		probe{name: "serve.prefill_ms.t128", unit: "ms", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			// Two 64-token prompts packed into one ragged prefill.
			e := serveEngine()
			reqs := prompts(2, 64)
			return func() {
				sched := serve.NewScheduler(e.KV, e, 2)
				if err := sched.Submit(reqs...); err != nil {
					panic(err)
				}
				sched.Step()
			}, nil, ms
		}},

		// planner, sim, pp: the pricing calls a search makes thousands of.
		probe{name: "planner.evaluate_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			req := planSearch.req
			plan, err := req.Feasible(8, 1, 2)
			if err != nil {
				panic(err)
			}
			c := plan.Candidate()
			return func() {
				if _, err := req.Evaluate(c); err != nil {
					panic(err)
				}
			}, nil, us
		}},
		probe{name: "sim.trainsim_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			ts := engine.Production8K()
			return func() {
				if _, err := ts.Simulate(); err != nil {
					panic(err)
				}
			}, nil, us
		}},
		probe{name: "sim.memsim_per_rank_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			ts := engine.Production8K()
			sched := pp.NewFlexible(ts.PP, ts.V, ts.NMB, ts.NC)
			cfg := memsim.Config{
				Model: ts.Model, TP: ts.TP, CP: ts.CP, DP: ts.DP, Seq: ts.Seq, MBS: 1,
				ZeRO: fsdp.ZeRO1, Sched: sched,
				LayerCounts: pp.StageLayerCounts(ts.Model.NLayers, sched.Stages(), ts.Balanced),
			}
			return func() { cfg.PerRank() }, nil, per(us, ts.PP)
		}},
		probe{name: "pp.simulate_us", unit: "us", better: "lower", prepare: func() (func(), func(), func(float64) float64) {
			sched := pp.NewFlexible(16, 8, 16, 16)
			costs := pp.UniformCosts(1, 0.1)
			return func() {
				if _, err := sched.Simulate(costs); err != nil {
					panic(err)
				}
			}, nil, us
		}},
	)
	return ps
}()
