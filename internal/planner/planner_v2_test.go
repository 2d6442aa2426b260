package planner

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llama4d/internal/core"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/metrics/xval"
	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// Production-scale searches cost ~15 s each; the golden, ordering, and
// stats tests share one result per sequence length.
var prodSearch = struct {
	sync.Mutex
	plans map[int][]Plan
	stats map[int]Stats
}{plans: map[int][]Plan{}, stats: map[int]Stats{}}

func searchProd(t *testing.T, seq int) ([]Plan, Stats) {
	t.Helper()
	prodSearch.Lock()
	defer prodSearch.Unlock()
	if p, ok := prodSearch.plans[seq]; ok {
		return p, prodSearch.stats[seq]
	}
	p, st := SearchWithStats(Production405B(seq))
	prodSearch.plans[seq] = p
	prodSearch.stats[seq] = st
	return p, st
}

// smallModel mirrors the xval sweep model: big enough to exercise every
// parallel dimension on 16 ranks, small enough to run functionally.
func smallModel() model.Config {
	return model.Config{Vocab: 64, Dim: 32, Hidden: 64, NHeads: 4, NKVHeads: 2, NLayers: 4}
}

func smallRequest() Request {
	return Request{
		Cost:         cost.Default(),
		Model:        smallModel(),
		NGPUs:        16,
		GlobalTokens: 32 * 16, // gbs = 32 samples at seq 16
		Seq:          16,
		HBMBudgetGiB: 64,
		HostSize:     4, // 16 ranks = 4 hosts of 4: collectives go tiered
	}
}

// TestSearchGoldenTable2 is the golden check: the full-space search must
// surface the paper's Table 2 production rows as its first-ranked plan, in
// the exact variant production ran — ZeRO-1, no recomputation, mbs=1,
// overlap on.
func TestSearchGoldenTable2(t *testing.T) {
	cases := []struct {
		seq            string
		seqLen         int
		tp, cp, pp, dp int
	}{
		{"8K", 8192, 8, 1, 16, 128},
		{"131K", 131072, 8, 16, 16, 8},
	}
	for _, tc := range cases {
		t.Run(tc.seq, func(t *testing.T) {
			plans, st := searchProd(t, tc.seqLen)
			if len(plans) == 0 {
				t.Fatal("no feasible plans")
			}
			p := plans[0]
			if p.TP != tc.tp || p.CP != tc.cp || p.PP != tc.pp || p.DP != tc.dp {
				t.Fatalf("winner %v, Table 2 says tp=%d cp=%d pp=%d dp=%d",
					p, tc.tp, tc.cp, tc.pp, tc.dp)
			}
			if p.ZeRO != fsdp.ZeRO1 || p.Recompute != model.RecomputeNone ||
				p.MBS != 1 || !p.Overlap || p.V != 8 || p.BS != 16 {
				t.Fatalf("winner knobs diverge from the production variant: %v", p)
			}
			if p.HFU <= 0 || p.HFU >= 1 {
				t.Fatalf("HFU %v out of (0,1)", p.HFU)
			}
			if p.InterBytesPerRank <= 0 || p.IntraBytesPerRank <= 0 {
				t.Fatalf("tier split missing: %v", p)
			}
			if p.CollInterBytesPerRank <= 0 || p.CollInterBytesPerRank > p.InterBytesPerRank {
				t.Fatalf("collective inter bytes %d outside (0, %d]",
					p.CollInterBytesPerRank, p.InterBytesPerRank)
			}
			// Enumeration accounting: every enumerated point is pruned or
			// feasible, and every feasible point became a plan.
			if st.Enumerated != st.PrunedShape+st.PrunedMemory+st.Feasible {
				t.Fatalf("stats don't balance: %+v", st)
			}
			if st.Feasible != len(plans) {
				t.Fatalf("%d feasible in stats, %d plans", st.Feasible, len(plans))
			}
		})
	}
}

// planDigest is an FNV-64a digest of every field of every plan, in ranked
// order (the field-wise %+v, not Plan.String's rounded summary).
func planDigest(plans []Plan) uint64 {
	type fields Plan // no String method: %+v prints every field exactly
	h := fnv.New64a()
	for _, p := range plans {
		fmt.Fprintf(h, "%+v\n", fields(p))
	}
	return h.Sum64()
}

// TestSearchGoldenDigest pins the ranked output of two full searches byte
// for byte: the plan-search bench request (Llama 3 70B on 64 GPUs) and the
// Table 2 8K production request. A cost-model or search change that moves
// any field of any plan, or the order, fails here.
func TestSearchGoldenDigest(t *testing.T) {
	bench := Request{
		Cost: cost.Default(), Model: model.Llama3_70B(),
		NGPUs: 64, GlobalTokens: 256 << 10, Seq: 8192, HBMBudgetGiB: 66, HostSize: 8,
	}
	benchPlans, _ := SearchWithStats(bench)
	prodPlans, _ := searchProd(t, 8192)
	for _, tc := range []struct {
		name  string
		plans []Plan
		want  uint64
	}{
		{"70B/64", benchPlans, 13698733989323860346},
		{"405B/8K", prodPlans, 7576622207217854395},
	} {
		if got := planDigest(tc.plans); got != tc.want {
			t.Errorf("%s: %d plans digest %d, golden %d", tc.name, len(tc.plans), got, tc.want)
		}
	}
}

// TestSearchOrderingDeterministic runs the identical search twice and
// demands byte-identical output — the sort.SliceStable + total tie-break
// regression for the nondeterministic-ranking bug.
func TestSearchOrderingDeterministic(t *testing.T) {
	r := smallRequest()
	a, sa := SearchWithStats(r)
	b, sb := SearchWithStats(r)
	if sa != sb {
		t.Fatalf("stats diverge across runs: %+v vs %+v", sa, sb)
	}
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("plan %d diverges across runs:\n  %v\n  %v", i, a[i], b[i])
			}
		}
		t.Fatal("search output diverges across runs")
	}
}

// TestRankPlansTotalOrder feeds the production plan list to the ranker in
// reverse and demands the same order back: the comparator must be a total
// order on distinct plans, not dependent on input order.
func TestRankPlansTotalOrder(t *testing.T) {
	plans, _ := searchProd(t, 8192)
	rev := make([]Plan, len(plans))
	for i, p := range plans {
		rev[len(plans)-1-i] = p
	}
	rankPlans(rev, Production405B(8192).Band())
	if !reflect.DeepEqual(rev, plans) {
		for i := range plans {
			if !reflect.DeepEqual(rev[i], plans[i]) {
				t.Fatalf("position %d depends on input order:\n  %v\n  %v", i, plans[i], rev[i])
			}
		}
	}
}

// TestSearchWinnerSpotCheckExact closes the loop: the winning small-world
// plan is replayed through a real functional cluster, and the planner's
// prediction oracle (xval.PredictConfig on the exact Config the plan
// materialises) must equal the measured metrics.StepReport — comm bytes and
// message counts per (group, op) key including the ".intra"/".inter" tier
// volumes, and the world FLOP total — with zero tolerance, for both the
// first and a steady-state step.
func TestSearchWinnerSpotCheckExact(t *testing.T) {
	r := smallRequest()
	plans, _ := SearchWithStats(r)
	if len(plans) == 0 {
		t.Fatal("no feasible plans for the small world")
	}
	p := plans[0]
	cfg := p.Config(r)
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatalf("winner %v does not build: %v", p, err)
	}
	reg := metrics.NewRegistry(cfg.Topo.World())
	cl.Attach(reg)
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 8, Seed: 7}
	var reps []*metrics.StepReport
	for step := int64(0); step < 2; step++ {
		reg.BeginStep(step)
		cl.Step(gen, step)
		reps = append(reps, reg.EndStep())
	}
	tiered := false
	for step, rep := range reps {
		ex := xval.PredictConfig(cfg, step > 0)
		if rep.FLOPs != ex.FLOPs {
			t.Errorf("step %d: measured %d FLOPs, planner predicted %d", step, rep.FLOPs, ex.FLOPs)
		}
		for _, rr := range rep.Ranks {
			want := ex.Comm[rr.Rank]
			for k, v := range rr.Comm {
				if strings.HasSuffix(k, ".inter") {
					tiered = true
				}
				if w, ok := want[k]; !ok {
					t.Errorf("step %d rank %d: measured unpredicted traffic %s: %+v", step, rr.Rank, k, v)
				} else if v != w {
					t.Errorf("step %d rank %d %s: measured %+v, predicted %+v", step, rr.Rank, k, v, w)
				}
			}
			for k, w := range want {
				if _, ok := rr.Comm[k]; !ok {
					t.Errorf("step %d rank %d: predicted %s (%+v) never measured", step, rr.Rank, k, w)
				}
			}
		}
	}
	if !tiered {
		t.Error("HostSize > 1 but no .inter tier volumes were measured")
	}
	// The plan's own tier fields come from the same oracle.
	rp := xval.PredictRank(cfg, 0, true)
	if p.IntraBytesPerRank != rp.IntraBytes || p.InterBytesPerRank != rp.InterBytes {
		t.Errorf("plan tier bytes (%d,%d) != oracle (%d,%d)",
			p.IntraBytesPerRank, p.InterBytesPerRank, rp.IntraBytes, rp.InterBytes)
	}
	if p.CollInterBytesPerRank != rp.InterBytes-rp.P2PInterBytes {
		t.Errorf("plan collective inter bytes %d != oracle %d",
			p.CollInterBytesPerRank, rp.InterBytes-rp.P2PInterBytes)
	}
}

// TestMemConfigPinnedToLiveCluster pins the planner's memory-prune
// configuration against xval.MemConfig of a live cluster built from the
// same candidate — the regression for the Feasible memsim-config drift
// (hardcoded ZeRO-1/MBS=1 regardless of the candidate's actual knobs).
func TestMemConfigPinnedToLiveCluster(t *testing.T) {
	r := smallRequest()
	cands := []Candidate{
		{TP: 2, CP: 2, PP: 2, DP: 2, V: 1, NMB: 16, MBS: 1,
			ZeRO: fsdp.ZeRO2, Recompute: model.RecomputeSelective, Overlap: true},
		{TP: 1, CP: 1, PP: 4, DP: 4, V: 1, NMB: 8, MBS: 1,
			ZeRO: fsdp.ZeRO1, Recompute: model.RecomputeNone, Overlap: true},
		{TP: 2, CP: 1, PP: 1, DP: 8, V: 1, NMB: 2, MBS: 2,
			ZeRO: fsdp.ZeRO3, Recompute: model.RecomputeFull, Overlap: false},
	}
	for _, c := range cands {
		if _, err := r.Evaluate(c); err != nil {
			t.Fatalf("candidate %+v should be feasible: %v", c, err)
		}
		cl, err := core.NewCluster(r.Config(c))
		if err != nil {
			t.Fatalf("candidate %+v does not build: %v", c, err)
		}
		got := r.memConfig(c, c.sched())
		want := xval.MemConfig(cl)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("candidate %+v: planner memsim config %+v diverges from live cluster's %+v",
				c, got, want)
		}
	}
}

// FuzzFeasible asserts Feasible never panics and every plan it emits
// satisfies the divisibility, batch, and memory constraints.
func FuzzFeasible(f *testing.F) {
	f.Add(8, 1, 16)
	f.Add(8, 16, 16)
	f.Add(4, 2, 8)
	f.Add(3, 5, 7)
	f.Add(1, 1, 1)
	f.Add(0, -1, 64)
	f.Add(8, 1, 128)
	f.Fuzz(func(t *testing.T, tp, cp, ppSize int) {
		req := Production405B(8192)
		p, err := req.Feasible(tp, cp, ppSize)
		if err != nil {
			return
		}
		if p.TP*p.CP*p.PP*p.DP != req.NGPUs {
			t.Fatalf("%v: tp·cp·pp·dp != %d", p, req.NGPUs)
		}
		if p.PeakMemGiB > req.HBMBudgetGiB {
			t.Fatalf("%v exceeds memory budget", p)
		}
		if p.BS < 1 || p.BS != p.NMB*p.MBS {
			t.Fatalf("%v: inconsistent batch split", p)
		}
		if req.Model.NHeads%p.TP != 0 || req.Model.Vocab%p.TP != 0 {
			t.Fatalf("%v: tp divisibility violated", p)
		}
		if p.CP > 1 && req.Seq%(2*p.CP) != 0 {
			t.Fatalf("%v: cp divisibility violated", p)
		}
	})
}

// FuzzSearch asserts the full-space search never panics on arbitrary small
// worlds and that every emitted plan and the enumeration stats satisfy the
// search invariants.
func FuzzSearch(f *testing.F) {
	f.Add(16, 32, 1, 6)
	f.Add(8, 16, 0, 6)
	f.Add(4, 8, 2, 6)
	f.Add(12, 6, 1, 6)
	f.Add(1, 1, 0, 6)
	f.Fuzz(func(t *testing.T, ngpu, gbs, seqSel, hostSel int) {
		ngpu = 1 + abs(ngpu)%32
		gbs = 1 + abs(gbs)%256
		seq := []int{8, 16, 32}[abs(seqSel)%3]
		r := Request{
			Cost:         cost.Default(),
			Model:        smallModel(),
			NGPUs:        ngpu,
			GlobalTokens: int64(gbs) * int64(seq),
			Seq:          seq,
			HBMBudgetGiB: 64,
			HostSize:     abs(hostSel)%12 - 2, // -2…9; 6 draws 4
		}
		plans, st := SearchWithStats(r)
		if st.Enumerated != st.PrunedShape+st.PrunedMemory+st.Feasible {
			t.Fatalf("stats don't balance: %+v", st)
		}
		if len(plans) != st.Feasible {
			t.Fatalf("%d plans, stats say %d feasible", len(plans), st.Feasible)
		}
		if r.HostSize < 0 && len(plans) > 0 {
			t.Fatalf("host size %d accepted: %d plans", r.HostSize, len(plans))
		}
		for _, p := range plans {
			if p.TP*p.CP*p.PP*p.DP != ngpu {
				t.Fatalf("%v: tp·cp·pp·dp != %d", p, ngpu)
			}
			if p.PeakMemGiB > r.HBMBudgetGiB {
				t.Fatalf("%v exceeds memory budget", p)
			}
			if p.BS < 1 || p.BS != p.NMB*p.MBS {
				t.Fatalf("%v: inconsistent batch split", p)
			}
			if r.Model.NHeads%p.TP != 0 {
				t.Fatalf("%v: tp divisibility violated", p)
			}
			if p.CP > 1 && seq%(2*p.CP) != 0 {
				t.Fatalf("%v: cp divisibility violated", p)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
