package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"llama4d/internal/tensor"
)

// opSample is what one timed op measured.
type opSample struct {
	wallMS float64 // the op's wall time
	latMS  float64 // the user-visible latency inside it (see workload.latency)
	work   float64 // tokens (train, serve) or candidates (plan) it completed
}

// samples is what the ops of one pass measure.
type samples struct {
	ops []opSample

	attempted, failed int
	errs              []string
}

func (m *samples) wallMS() []float64 {
	out := make([]float64, len(m.ops))
	for i, o := range m.ops {
		out[i] = o.wallMS
	}
	return out
}

// fail counts one failed operation or output check.
func (m *samples) fail(format string, args ...any) {
	m.failed++
	if len(m.errs) < 8 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// A session is one constructed, warmed-up instance of a workload. It drives
// the program only through its public functions.
type session interface {
	// op runs one unit of work (a training step, a serving load, a planner
	// search) and folds what it measured into m. Every op of a session costs
	// the same: the same work, or work picked to cost the same. A traced op
	// additionally records spans under parent and feeds the session's layer
	// counters.
	op(m *samples, traced bool, log *spanLog, parent int)
	// digest identifies the warm-up op's output; the same seed must give the
	// same digest every time the workload is set up.
	digest() uint64
	// verify checks outputs against the repo's reference implementations.
	verify(m *samples)
	// layers adds the per-layer metrics the traced ops produced.
	layers(out map[string]float64)
}

// workload is one benchmark input set. The parameters live in the
// workloads table; open builds a session from a seed, so the program sees
// only generated inputs.
type workload struct {
	name string
	why  string
	// latency says what an op's latency is on this workload.
	latency string
	// work says what an op's throughput counts.
	work string
	// open constructs the program state and runs the untimed warm-up op.
	// A traceable session can run traced ops next to plain ones.
	open func(seed int64, traceable bool) (session, error)
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // spans and traces of the traced pass; "" writes nothing
	round   int

	setups     int // times set-up is repeated; setup_s is their median
	minOps     int // timed ops run even when seconds is short
	probeCalls int // timed calls per probe at most; 0 skips the probes
}

func defaultOptions() options {
	return options{seed: 1, seconds: runSeconds, setups: 3, minOps: 2, probeCalls: 30}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs  []string
	notes []string // human-readable lines printed before the JSON
}

// runWorkload measures one workload once: the end-to-end metrics with
// tracing off, or the per-layer metrics from a traced pass plus the probes.
func runWorkload(w workload, o options) (*result, error) {
	if o.trace {
		return runTraced(w, o)
	}
	m := &samples{}
	var sess session
	var setupS []float64
	var digest uint64
	for i := 0; i < o.setups; i++ {
		// Drop the previous instance first, so two never coexist and the
		// arena starts as empty as in a fresh process.
		sess = nil
		tensor.ResetDefaultPool()
		runtime.GC()
		t0 := time.Now()
		s, err := w.open(o.seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		m.attempted++
		if i > 0 && s.digest() != digest {
			m.fail("set-up %d: warm-up output %x differs from %x under the same seed", i, s.digest(), digest)
		}
		sess, digest = s, s.digest()
	}
	runtime.GC()

	start := time.Now()
	for n := 0; more(n, o.minOps, start, o.seconds); n++ {
		sess.op(m, false, nil, -1)
	}
	sess.verify(m)

	// The ops of a run cost the same, and this machine only ever slows them
	// down, for seconds at a time (README.md, "Noise"). So the run reports
	// its faster quartile: the lower quartile of the ops' latencies and the
	// upper quartile of their rates. The medians are printed next to them.
	var lat, rate []float64
	for _, op := range m.ops {
		lat = append(lat, op.latMS)
		rate = append(rate, op.work/op.wallMS*1e3)
	}
	res := newResult(m, endToEnd, map[string]float64{
		"latency_ms_q1":       quantile(lat, 0.25),
		"throughput_per_s_q3": quantile(rate, 0.75),
		"setup_s":             median(setupS),
	})
	res.notes = append(res.notes,
		fmt.Sprintf("%s latency_ms_q1 = %s, lower quartile over %d ops; median=%.4g q3=%.4g", w.name, w.latency, len(lat), median(lat), quantile(lat, 0.75)),
		fmt.Sprintf("%s throughput_per_s_q3 = %s per second of an op, upper quartile; median=%.4g q1=%.4g", w.name, w.work, median(rate), quantile(rate, 0.25)),
		fmt.Sprintf("%s setup_s n=%d min=%.4g max=%.4g", w.name, len(setupS), quantile(setupS, 0), quantile(setupS, 1)))
	if n, ok := sess.(interface{ note() string }); ok {
		res.notes = append(res.notes, w.name+" "+n.note())
	}
	return res, nil
}

// more reports whether to run another op after n of them since start: always
// up to minOps, then while the next op, taking the mean of those so far, would
// end nearer to the deadline than stopping now does.
func more(n, minOps int, start time.Time, seconds float64) bool {
	if n < minOps {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(n)/2 < seconds
}

// Shares of a traced run's --seconds: the workload's plain/traced op pairs,
// then the isolated layer probes.
const (
	tracedOpsShare = 0.55
	probesShare    = 0.45
)

func runTraced(w workload, o options) (*result, error) {
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
	}
	tensor.ResetDefaultPool()
	sess, err := w.open(o.seed, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	runtime.GC()

	log := newSpanLog(w.name, o.round)
	plain, traced := &samples{}, &samples{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := log.begin(w.name, -1)
	start := time.Now()
	// Plain and traced ops alternate, so both see the same machine phases
	// and their lower quartiles give the tracing overhead.
	for n := 0; more(n, (o.minOps+1)/2, start, tracedOpsShare*o.seconds); n++ {
		sess.op(plain, false, nil, -1)
		sess.op(traced, true, log, root)
	}
	log.end(root)
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	sess.verify(traced)

	vals := map[string]float64{}
	sess.layers(vals)
	ops := float64(len(plain.ops) + len(traced.ops))
	vals["run.op_ms_p50"] = median(traced.wallMS())
	vals["trace.overhead_share"] = ratio(quantile(traced.wallMS(), 0.25), quantile(plain.wallMS(), 0.25)) - 1
	vals["runtime.peak_rss_mb"] = rss
	vals["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / ops
	vals["runtime.gc_pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / ops

	// Every probe gets an equal share of what is left of the probe window,
	// so one that overruns on its minimum of calls shortens the rest.
	if o.probeCalls > 0 {
		deadline := time.Now().Add(time.Duration(probesShare * o.seconds * float64(time.Second)))
		for i, p := range probes {
			vals[p.name] = p.run(o.probeCalls, time.Until(deadline)/time.Duration(len(probes)-i))
		}
	}

	m := &samples{
		attempted: plain.attempted + traced.attempted + 1, // + the warm-up op
		failed:    plain.failed + traced.failed,
		errs:      append(plain.errs, traced.errs...),
	}
	res := newResult(m, perLayer, vals)
	dur, self := log.totals()
	for _, name := range sortedKeys(dur) {
		res.notes = append(res.notes, fmt.Sprintf("%s span %-8s total %.4fs self %.4fs", w.name, name, dur[name], self[name]))
	}
	if o.outDir != "" {
		if err := log.writeJSON(filepath.Join(o.outDir, "spans-"+w.name+".json")); err != nil {
			return nil, err
		}
		if e, ok := sess.(interface{ export(path string) error }); ok {
			if err := e.export(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// newResult reports every metric of specs under the unit the spec fixes. A
// metric without a value is a layer the workload bypasses: it did no work
// and reports 0. A value outside the spec is a bug in the benchmark.
func newResult(m *samples, specs []metricSpec, vals map[string]float64) *result {
	res := &result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metric{}, errs: m.errs,
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metric{Value: vals[s.Name], Unit: s.Unit}
		delete(vals, s.Name)
	}
	if len(vals) > 0 {
		panic(fmt.Sprintf("bench: metrics %v are not in the spec", sortedKeys(vals)))
	}
	return res
}
