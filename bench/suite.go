package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// suiteResult is what a full suite run writes to result.json.
type suiteResult struct {
	GoMaxProcs int                       `json:"go_max_procs"`
	GoVersion  string                    `json:"go_version"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Rounds     int                       `json:"rounds"`
	Workloads  map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]suiteMetric `json:"end_to_end"`
	PerLayer  map[string]suiteMetric `json:"per_layer"`
}

// suiteMetric pools one metric over the rounds: the median of the rounds'
// values, with the values themselves.
type suiteMetric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds"`
}

// rounds is how many times the suite measures every workload with tracing
// off; one traced round follows.
const rounds = 3

// runSuite measures every workload rounds times with tracing off and once
// traced. Machine speed here drifts in multi-second phases, so rounds are
// interleaved (every workload once per round) and each run is a child
// process of this binary, strictly one at a time. A run whose operations or
// output checks fail ends the suite.
func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := &suiteResult{
		GoMaxProcs: gomaxprocs, GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: o.seconds, Rounds: rounds,
		Workloads: map[string]*suiteWorkload{},
	}
	for _, w := range workloads {
		out.Workloads[w.name] = &suiteWorkload{Correct: true, EndToEnd: map[string]suiteMetric{}, PerLayer: map[string]suiteMetric{}}
	}
	for round := 1; round <= rounds+1; round++ {
		traced := round > rounds
		for _, w := range workloads {
			res, err := runChild(self, w.name, o, round, traced)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", w.name, round, err)
			}
			sw := out.Workloads[w.name]
			sw.Correct = sw.Correct && res.Correct
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			into := sw.EndToEnd
			if traced {
				into = sw.PerLayer
			}
			for name, m := range res.Metrics {
				sm := into[name]
				sm.Unit = m.Unit
				sm.Rounds = append(sm.Rounds, m.Value)
				sm.Value = median(sm.Rounds)
				into[name] = sm
			}
		}
	}
	for _, w := range workloads {
		sw := out.Workloads[w.name]
		fmt.Printf("%s correct=%v attempted=%d failed=%d\n", w.name, sw.Correct, sw.Attempted, sw.Failed)
		for _, group := range []map[string]suiteMetric{sw.EndToEnd, sw.PerLayer} {
			for _, name := range sortedKeys(group) {
				m := group[name]
				fmt.Printf("%s %s %.6g %s n=%d q1=%.6g q3=%.6g\n", w.name, name, m.Value, m.Unit,
					len(m.Rounds), quantile(m.Rounds, 0.25), quantile(m.Rounds, 0.75))
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "result.json"), append(data, '\n'), 0o644)
}

// runChild runs one workload once in a child process and parses the JSON
// object on the last line of its output.
func runChild(self, name string, o options, round int, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-out", o.outDir, "-round", strconv.Itoa(round))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing the child's result: %w", err)
	}
	return &res, nil
}

// checkFiles compares two suite results of the same code: every end-to-end
// metric must agree within its bound on every workload, and every exact
// count must agree exactly.
func checkFiles(pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds || a.Rounds != b.Rounds {
		return fmt.Errorf("the results were not measured alike: %g s × %d rounds and %g s × %d rounds", a.Seconds, a.Rounds, b.Seconds, b.Rounds)
	}
	bad := 0
	report := func(format string, args ...any) {
		bad++
		fmt.Printf(format+"\n", args...)
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			report("%s: missing from a result file", w.name)
			continue
		}
		if !wa.Correct || !wb.Correct {
			report("%s: output checks failed (%d and %d failures)", w.name, wa.Failed, wb.Failed)
		}
		for _, s := range endToEnd {
			va, vb := wa.EndToEnd[s.Name].Value, wb.EndToEnd[s.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := "ok"
			if !(diff <= s.Bound) { // also catches NaN from a missing metric
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-14s %-18s %12.6g %12.6g %s  %+.1f%% (bound %.0f%%) %s\n",
				w.name, s.Name, va, vb, s.Unit, 100*(vb-va)/va, 100*s.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue // counts are a function of the seed
		}
		for _, s := range perLayer {
			if va, vb := wa.PerLayer[s.Name].Value, wb.PerLayer[s.Name].Value; s.Exact && va != vb {
				report("%s %s: exact count %v != %v", w.name, s.Name, va, vb)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d differences beyond the bounds", bad)
	}
	return nil
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
