package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
	"llama4d/internal/tp"
)

// testModel builds a deterministic tiny model for the given head split.
func testModel(nHeads, nKVHeads int) *model.Model {
	cfg := model.Config{
		Vocab: 61, Dim: 32, Hidden: 48, NHeads: nHeads, NKVHeads: nKVHeads,
		NLayers: 2, MaxSeq: 128, RopeBase: 10000,
	}
	return model.New(cfg, rand.New(rand.NewSource(7)))
}

func randPrompt(rng *rand.Rand, n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = rng.Intn(vocab)
	}
	return p
}

// modelLogits runs the training stack's forward (Embed → Blocks → Head.Norm
// → Head.Proj) and returns rank 0's all-position logits: the model's own
// blocks at degree 1, tp.ShardBlock's training forward under a TP group.
func modelLogits(t *testing.T, m *model.Model, tokens []int, degree int) *tensor.Tensor {
	t.Helper()
	var out *tensor.Tensor
	world := comm.NewWorld(degree)
	group := tpGroup(world, degree)
	err := world.RunSPMD(func(rank int) {
		env := model.SeqEnv(len(tokens), attention.Causal{})
		x, _ := m.Embed.Forward(tokens)
		for _, b := range m.Blocks {
			if group != nil {
				b = tp.ShardBlock(b, &tp.Ctx{Group: group, Rank: rank})
			}
			x, _ = b.Forward(x, env)
		}
		n, _ := m.Head.Norm.Forward(x, env)
		logits, _ := m.Head.Proj.Forward(n, env)
		if rank == 0 {
			out = logits
		}
	})
	if err != nil {
		t.Fatalf("model world: %v", err)
	}
	return out
}

// TestOracleMatchesModel pins the serving oracle to the training stack: the
// engine's dense full forward must reproduce the training forward's logits
// bit for bit at the same TP degree — also when a layer's norm carries its
// own Eps, which an engine applying the head's Eps everywhere gets wrong.
func TestOracleMatchesModel(t *testing.T) {
	tokens := randPrompt(rand.New(rand.NewSource(3)), 19, 61)
	for _, degree := range []int{1, 2} {
		for _, eps := range []float32{1e-5, 1e-2} {
			t.Run(fmt.Sprintf("tp%d/eps%g", degree, eps), func(t *testing.T) {
				m := testModel(4, 2)
				m.Blocks[0].Norm1.Eps = eps
				want := modelLogits(t, m, tokens, degree)
				got := oracleLogits(t, m, tokens, degree)
				if !want.SameShape(got) {
					t.Fatalf("shape %v vs %v", want.Shape, got.Shape)
				}
				for i := range want.Data {
					if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
						t.Fatalf("logit %d differs: %v vs %v", i, want.Data[i], got.Data[i])
					}
				}
			})
		}
	}
}

// tpGroup builds the all-ranks TP group, or nil for a sequential world.
func tpGroup(world *comm.World, tp int) *comm.Group {
	if tp <= 1 {
		return nil
	}
	ranks := make([]int, tp)
	for i := range ranks {
		ranks[i] = i
	}
	g := world.NewGroup(ranks)
	g.Label = "tp"
	return g
}

// capturedLogits records every generated position's logits per request.
type capturedLogits map[int]map[int][]float32 // request ID -> position -> row

func capture(e *Engine) capturedLogits {
	got := capturedLogits{}
	e.OnLogits = func(s *SeqState, pos int, row []float32) {
		m := got[s.Req.ID]
		if m == nil {
			m = map[int][]float32{}
			got[s.Req.ID] = m
		}
		m[pos] = append([]float32(nil), row...)
	}
	return got
}

// serveOnce runs the full admission/prefill/decode pipeline for reqs at the
// given TP degree and page budget, returning rank 0's captured logits and
// outputs.
func serveOnce(t *testing.T, m *model.Model, reqs []*Request, tp, pageSize, budget, maxBatch int) (capturedLogits, map[int][]int, *Scheduler) {
	t.Helper()
	var logits capturedLogits
	outputs := map[int][]int{}
	var sched0 *Scheduler
	world := comm.NewWorld(tp)
	group := tpGroup(world, tp)
	err := world.RunSPMD(func(rank int) {
		e := NewEngine(m, Options{PageSize: pageSize, PageBudget: budget, Group: group, Rank: rank})
		var captured capturedLogits
		if rank == 0 {
			captured = capture(e)
		}
		s := NewScheduler(e.KV, e, maxBatch)
		// Each rank re-clones the request list: SeqStates are rank-local.
		local := make([]*Request, len(reqs))
		for i, r := range reqs {
			local[i] = &Request{ID: r.ID, Prompt: r.Prompt, MaxNew: r.MaxNew, Arrival: r.Arrival}
		}
		if err := s.Submit(local...); err != nil {
			panic(err)
		}
		s.RunToCompletion()
		if rank == 0 {
			logits = captured
			for _, seq := range s.Completed() {
				outputs[seq.Req.ID] = append([]int(nil), seq.Output...)
			}
			sched0 = s
		}
	})
	if err != nil {
		t.Fatalf("serve world: %v", err)
	}
	return logits, outputs, sched0
}

// oracleLogits runs the same-TP dense full forward of prompt+output and
// returns rank 0's logits.
func oracleLogits(t *testing.T, m *model.Model, tokens []int, tp int) *tensor.Tensor {
	t.Helper()
	var out *tensor.Tensor
	world := comm.NewWorld(tp)
	group := tpGroup(world, tp)
	err := world.RunSPMD(func(rank int) {
		e := NewEngine(m, Options{PageSize: 8, Group: group, Rank: rank})
		lg := e.FullForwardLogits(tokens)
		if rank == 0 {
			out = lg
		}
	})
	if err != nil {
		t.Fatalf("oracle world: %v", err)
	}
	return out
}

// TestDecodeBitwiseContract is the acceptance property grid: for every
// (TP degree × batch size × GQA ratio) config, batched incremental decode
// through the paged cache emits Float32bits-identical logits to the
// single-sequence dense full-forward oracle at every generated position.
func TestDecodeBitwiseContract(t *testing.T) {
	heads := []struct{ nh, nkv int }{{4, 2}, {8, 2}, {4, 4}}
	for _, hs := range heads {
		m := testModel(hs.nh, hs.nkv)
		for _, tp := range []int{1, 2} {
			for _, batch := range []int{1, 3} {
				name := fmt.Sprintf("gqa%d-%d/tp%d/b%d", hs.nh, hs.nkv, tp, batch)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(41*hs.nh + 7*tp + batch)))
					var reqs []*Request
					for i := 0; i < batch; i++ {
						reqs = append(reqs, &Request{
							ID:     i,
							Prompt: randPrompt(rng, 3+rng.Intn(9), m.Cfg.Vocab),
							MaxNew: 2 + rng.Intn(4),
						})
					}
					logits, outputs, _ := serveOnce(t, m, reqs, tp, 4, 1<<20, batch)

					for _, r := range reqs {
						tokens := append(append([]int(nil), r.Prompt...), outputs[r.ID]...)
						want := oracleLogits(t, m, tokens, tp)
						got := logits[r.ID]
						if len(got) != r.MaxNew {
							t.Fatalf("req %d: captured %d positions, want %d", r.ID, len(got), r.MaxNew)
						}
						for pos, row := range got {
							wrow := want.Row(pos)
							for j := range row {
								if math.Float32bits(row[j]) != math.Float32bits(wrow[j]) {
									t.Fatalf("req %d pos %d logit %d: decode %v vs oracle %v",
										r.ID, pos, j, row[j], wrow[j])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestBatchedMatchesSerialTokens is the continuous-batching contract at a
// model wide enough that the two schedulers take different kernel paths: at
// batch 16 the vocabulary projection (16·256·2048) crosses the tensor
// package's parallel threshold and runs row-split, one request at a time it
// stays serial. The
// same requests served with MaxBatch 1 and MaxBatch 16 must still emit
// identical token streams — batching is pure scheduling, not numerics.
func TestBatchedMatchesSerialTokens(t *testing.T) {
	cfg := model.Config{
		Vocab: 2048, Dim: 256, Hidden: 768, NHeads: 8, NKVHeads: 4,
		NLayers: 2, MaxSeq: 32, RopeBase: 10000,
	}
	m := model.New(cfg, rand.New(rand.NewSource(17)))
	const batch, prompt, maxNew = 16, 4, 8
	rng := rand.New(rand.NewSource(23))
	reqs := make([]*Request, batch)
	for i := range reqs {
		reqs[i] = &Request{ID: i, Prompt: randPrompt(rng, prompt, cfg.Vocab), MaxNew: maxNew}
	}
	for _, tp := range []int{1, 2} {
		_, serial, _ := serveOnce(t, m, reqs, tp, 16, 1<<20, 1)
		_, batched, _ := serveOnce(t, m, reqs, tp, 16, 1<<20, batch)
		for _, r := range reqs {
			so, bo := serial[r.ID], batched[r.ID]
			if len(so) != maxNew || len(bo) != maxNew {
				t.Fatalf("tp%d request %d generated %d/%d tokens, want %d", tp, r.ID, len(so), len(bo), maxNew)
			}
			for j := range so {
				if so[j] != bo[j] {
					t.Fatalf("tp%d request %d token %d: serial %d != batched %d", tp, r.ID, j, so[j], bo[j])
				}
			}
		}
	}
}

// TestPreemptionBitwise forces eviction pressure with a tight page budget
// and asserts the decode stream — tokens and every logits row — is
// unchanged relative to an unconstrained run: deterministic re-prefill of
// prompt+generated reproduces the evicted KV bit for bit.
func TestPreemptionBitwise(t *testing.T) {
	m := testModel(4, 2)
	rng := rand.New(rand.NewSource(11))
	mkReqs := func() []*Request {
		var reqs []*Request
		for i := 0; i < 4; i++ {
			reqs = append(reqs, &Request{
				ID:     i,
				Prompt: randPrompt(rng, 5+2*i, m.Cfg.Vocab),
				MaxNew: 4,
			})
		}
		return reqs
	}
	reqs := mkReqs()

	// Tight: pages for roughly 1.5 requests; every request alone still fits.
	pageSize := 4
	maxNeed := 0
	kvProbe := NewKVCache(m.Cfg.NLayers, pageSize, 1, 1<<20)
	for _, r := range reqs {
		if n := kvProbe.PagesForTokens(len(r.Prompt) + r.MaxNew); n > maxNeed {
			maxNeed = n
		}
	}
	tight := maxNeed
	logitsT, outT, schedT := serveOnce(t, m, reqs, 1, pageSize, tight, 4)
	if schedT.Preemptions == 0 {
		t.Fatalf("tight budget %d pages produced no preemptions", tight)
	}
	logitsL, outL, schedL := serveOnce(t, m, reqs, 1, pageSize, 1<<20, 4)
	if schedL.Preemptions != 0 {
		t.Fatalf("loose run preempted %d times", schedL.Preemptions)
	}
	for _, r := range reqs {
		if fmt.Sprint(outT[r.ID]) != fmt.Sprint(outL[r.ID]) {
			t.Fatalf("req %d tokens diverge under preemption: %v vs %v", r.ID, outT[r.ID], outL[r.ID])
		}
		for pos, row := range logitsL[r.ID] {
			trow := logitsT[r.ID][pos]
			for j := range row {
				if math.Float32bits(row[j]) != math.Float32bits(trow[j]) {
					t.Fatalf("req %d pos %d logit %d diverges under preemption", r.ID, pos, j)
				}
			}
		}
	}
}

// TestPageAccounting asserts the zero-leak drain invariant: after a full
// load-generator run every page is back (allocator leased count zero, KV
// tag Gets == Puts) and the tagged traffic is visible in the pool stats.
func TestPageAccounting(t *testing.T) {
	m := testModel(4, 2)
	e := NewEngine(m, Options{PageSize: 4, PageBudget: 3 * m.Cfg.NLayers * 4})
	s := NewScheduler(e.KV, e, 4)
	reqs := Workload{
		Requests: 8, PromptMin: 3, PromptMax: 10, MaxNewMin: 2, MaxNewMax: 5,
		ArrivalSpan: 6, Vocab: m.Cfg.Vocab, Seed: 5,
	}.Generate()
	rep, err := RunLoad(s, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.KV.Alloc.Leased(); got != 0 {
		t.Fatalf("%d pages still leased at drain", got)
	}
	if rep.KVPool.Gets == 0 {
		t.Fatal("no KV-tagged pool traffic recorded")
	}
	if rep.LeakedPages != 0 {
		t.Fatalf("leaked %d page frames (gets=%d puts=%d)", rep.LeakedPages, rep.KVPool.Gets, rep.KVPool.Puts)
	}
	if rep.TotalTokens == 0 || rep.Requests != 8 {
		t.Fatalf("bad report: %+v", rep)
	}
	for _, q := range rep.PerRequest {
		if q.Generated < 2 {
			t.Fatalf("request %d generated %d tokens", q.ID, q.Generated)
		}
	}
}

// stubRunner exercises the scheduler without a model: token j of request
// id is id*1000+j, and only the cache bookkeeping the engine would do.
type stubRunner struct{ kv *KVCache }

func (r *stubRunner) Prefill(seqs []*SeqState) {
	for _, s := range seqs {
		n := len(s.feedTokens())
		if !r.kv.Reserve(s.Cache, n) {
			panic("stub: prefill reservation should have been made by the scheduler")
		}
		r.kv.Advance(s.Cache, n)
		s.Output = append(s.Output, s.Req.ID*1000+len(s.Output))
	}
}

func (r *stubRunner) DecodeStep(seqs []*SeqState) {
	for _, s := range seqs {
		r.kv.Advance(s.Cache, 1)
		s.Output = append(s.Output, s.Req.ID*1000+len(s.Output))
	}
}

// TestSchedulerTokenOrder drives the scheduler with a stub engine under
// eviction pressure and asserts per-sequence token order survives
// admission, preemption, and completion.
func TestSchedulerTokenOrder(t *testing.T) {
	kv := NewKVCache(2, 2, 1, 14)
	s := NewScheduler(kv, &stubRunner{kv: kv}, 3)
	reqs := []*Request{
		{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 4, Arrival: 0},
		{ID: 1, Prompt: []int{1}, MaxNew: 6, Arrival: 0},
		{ID: 2, Prompt: []int{1, 2, 3, 4, 5}, MaxNew: 3, Arrival: 2},
		{ID: 3, Prompt: []int{1, 2}, MaxNew: 5, Arrival: 2},
	}
	if err := s.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	s.RunToCompletion()
	if len(s.Completed()) != len(reqs) {
		t.Fatalf("completed %d of %d", len(s.Completed()), len(reqs))
	}
	for _, seq := range s.Completed() {
		if len(seq.Output) != seq.Req.MaxNew {
			t.Fatalf("req %d: %d tokens, want %d", seq.Req.ID, len(seq.Output), seq.Req.MaxNew)
		}
		for j, tok := range seq.Output {
			if tok != seq.Req.ID*1000+j {
				t.Fatalf("req %d: token %d is %d, order not preserved", seq.Req.ID, j, tok)
			}
		}
	}
	if kv.Alloc.Leased() != 0 {
		t.Fatalf("%d pages leaked", kv.Alloc.Leased())
	}
}
