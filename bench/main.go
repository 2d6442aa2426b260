// Command bench is the repository's benchmark: six workloads over training,
// serving and the planner, three end-to-end metrics measured with tracing
// off, and a traced pass plus isolated probes that attribute the time to
// layers. BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory says why each exists and which
// end-to-end metric each layer metric should move.
//
// One workload, once (what the acceptance driver runs):
//
//	bench --workload train-4d --seed 1 --seconds 18 --trace 0
//
// The whole suite, three rounds interleaved and a traced one, one child
// process per run:
//
//	bench [-seed 1] [-seconds 18] [-out bench/out]
//
// Two suite results against the bounds:
//
//	bench -check a.json b.json
//
// BENCHMARK.json is generated from the tables in spec.go (bench_test.go
// checks the two agree):
//
//	bench -spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
)

func main() {
	o := defaultOptions()
	name := flag.String("workload", "", "run this one workload once; empty runs the whole suite")
	flag.Int64Var(&o.seed, "seed", o.seed, "seed of the generated inputs and of weight init")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and the probes")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for spans, traces and the suite's result.json")
	flag.IntVar(&o.round, "round", 0, "round number recorded in the spans")
	check := flag.Bool("check", false, "compare two suite results: bench -check a.json b.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of a single-workload run")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the binary's tables define it")
	flag.Parse()
	o.trace = *trace != 0
	if *spec {
		printSpec()
		return
	}

	runtime.GOMAXPROCS(gomaxprocs)
	if err := run(*name, o, *check, *cpuprofile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, o options, check bool, cpuprofile string) error {
	switch {
	case check:
		if flag.NArg() != 2 {
			return fmt.Errorf("-check needs two result files")
		}
		return checkFiles(flag.Arg(0), flag.Arg(1))
	case name == "":
		return runSuite(o)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n", w.name, o.seed, o.seconds, o.trace, gomaxprocs)
	for _, line := range res.notes {
		fmt.Println(line)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%s %s %v %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations and output checks failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runSeconds is BENCHMARK.json's run_seconds: how long the acceptance
// driver lets one run measure.
const runSeconds = 18

// printSpec writes BENCHMARK.json from the workload and metric tables.
func printSpec() {
	type entry map[string]any
	file := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, entry{"name": w.name, "why": w.why})
	}
	for _, s := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, entry{"name": s.Name, "unit": s.Unit, "better": s.Better, "bound": s.Bound})
	}
	for _, s := range perLayer {
		file.PerLayer = append(file.PerLayer, entry{"name": s.Name, "unit": s.Unit, "better": s.Better})
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
