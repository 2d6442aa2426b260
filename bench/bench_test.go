package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"llama4d/internal/serve"
)

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// wantBounds pins the regression bounds: changing one is a decision about
// what later changes are held to, not a tuning knob.
var wantBounds = map[string]float64{"latency_ms_q1": 0.25, "throughput_per_s_q3": 0.25, "setup_s": 0.25}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the tables the
// binary emits from in step, and inside the limits the acceptance driver
// refuses a file for.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(f.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the binary %q: %q", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, file []fileMetric, specs []metricSpec, bounded bool) {
		t.Helper()
		if len(file) != len(specs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(file), len(specs))
		}
		for i, s := range specs {
			unique(s.Name)
			if !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: unit %q", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better %q", s.Name, s.Better)
			}
			m := file[i]
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", kind, i, m, s)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", s.Name)
			case bounded && (m.Bound == nil || *m.Bound != s.Bound || s.Bound != wantBounds[s.Name]):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the binary, want %v", s.Name, m.Bound, s.Bound, wantBounds[s.Name])
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("too many names: %d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}
}

// smokeWorkloads are the real workloads with the slow ones cut down: fewer
// and shorter requests per serving load (too few to fill the page pool) and
// the planner's warm-up request as the search.
func smokeWorkloads() []workload {
	dec, pre, plan := serveDecode, servePrefill, planSearch
	dec.load.Requests, dec.load.MaxNewMin, dec.load.MaxNewMax = 8, 4, 8
	pre.load.Requests, pre.load.PromptMin, pre.load.PromptMax, pre.preempts = 4, 17, 32, false
	plan.req = plan.warm
	out := append([]workload(nil), workloads...)
	for i := range out {
		switch out[i].name {
		case "serve-decode":
			out[i].open = dec.open
		case "serve-prefill":
			out[i].open = pre.open
		case "plan-search":
			out[i].open = plan.open
		}
	}
	return out
}

func names(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

// TestSmoke runs every workload for two ops, untraced and traced, and checks
// what the acceptance driver and the ledger rely on: every metric of the spec
// is emitted, output checks pass, and the layer times sum to the whole.
func TestSmoke(t *testing.T) {
	o := options{seed: 1, seconds: 0, setups: 2, minOps: 2}
	if testing.Short() {
		o.setups, o.minOps = 1, 1 // no set-up determinism check
	}
	for i, w := range smokeWorkloads() {
		w := w
		probeCalls := 0
		if i == 0 && !testing.Short() {
			probeCalls = probeMinimum // the probe pass once: it is the same on every workload
		}
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := o
				o.trace, o.probeCalls = traced, probeCalls
				o.outDir = t.TempDir()
				res, err := runWorkload(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: attempted %d failed %d: %v", traced, res.Attempted, res.Failed, res.errs)
				}
				want := names(endToEnd)
				if traced {
					want = names(perLayer)
				}
				sort.Strings(want)
				if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: metrics %v, want %v", traced, got, want)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
					}
				}
				if !traced {
					continue
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				switch w.name[:5] {
				case "train":
					if a := v("core.accounted_share"); a < 0.98 || a > 1.02 {
						t.Errorf("core.accounted_share = %v, want 0.98..1.02", a)
					}
				case "serve":
					if s := v("serve.prefill_share") + v("serve.decode_share") + v("serve.sched_self_share"); math.Abs(s-1) > 1e-9 {
						t.Errorf("serve prefill+decode+self shares sum to %v", s)
					}
				}
				if probeCalls > 0 {
					for _, p := range probes {
						if v(p.name) <= 0 {
							t.Errorf("probe %s = %v", p.name, v(p.name))
						}
					}
				}
				if _, err := os.Stat(o.outDir + "/spans-" + w.name + ".json"); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// countingRunner stands in for the engine: it generates token 0 and commits
// the KV slots the engine would, so the scheduler sees the real page pressure.
type countingRunner struct{ kv *serve.KVCache }

func (r countingRunner) Prefill(seqs []*serve.SeqState) {
	for _, seq := range seqs {
		r.kv.Advance(seq.Cache, len(seq.Req.Prompt)+len(seq.Output))
		seq.Output = append(seq.Output, 0)
	}
}

func (r countingRunner) DecodeStep(seqs []*serve.SeqState) {
	for _, seq := range seqs {
		r.kv.Advance(seq.Cache, 1)
		seq.Output = append(seq.Output, 0)
	}
}

// TestServePrefillShape checks what serve-prefill is for: the page pool, not
// the batch limit, caps concurrency, and sequences are preempted. The
// schedule is a function of the traffic shape alone, so no model runs.
func TestServePrefillShape(t *testing.T) {
	sp := servePrefill
	load := sp.load
	load.Vocab = sp.model.Vocab
	kv := serve.NewKVCache(sp.model.NLayers, sp.opts.PageSize, 1, sp.opts.PageBudget)
	sched := serve.NewScheduler(kv, countingRunner{kv}, sp.maxBatch)
	if err := sched.Submit(load.Generate()...); err != nil {
		t.Fatal(err)
	}
	sched.RunToCompletion()
	if sched.Preemptions < 2 || sched.PeakConcurrent >= sp.maxBatch {
		t.Errorf("%d preemptions, peak concurrency %d of %d: the page budget does not cap the load", sched.Preemptions, sched.PeakConcurrent, sp.maxBatch)
	}
	if n := kv.Alloc.Leased(); n != 0 {
		t.Errorf("%d pages leaked", n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog("w", 1)
	l.spans = []span{
		{Name: "tick", Start: 0, End: 10, Parent: -1},
		{Name: "prefill", Start: 1, End: 4, Parent: 0},
		{Name: "decode", Start: 4, End: 9, Parent: 0},
	}
	dur, self := l.totals()
	if dur["tick"] != 10 || self["tick"] != 2 || self["prefill"] != 3 || self["decode"] != 5 {
		t.Errorf("totals: dur %v self %v", dur, self)
	}
}
