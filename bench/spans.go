package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one bench-side trace record: a named interval and the span that
// caused it. Times are seconds since the log was opened. Spans are recorded
// around the calls into each layer, from the benchmark's own code; the
// program under test is not instrumented.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"` // index into the log, -1 for a root
	Workload string  `json:"workload"`
	Round    int     `json:"round"`
}

// spanLog keeps spans in memory until the run ends. It is used from the one
// goroutine that drives the workload. A nil log records nothing, so the
// untraced pass pays only a nil check.
type spanLog struct {
	t0       time.Time
	workload string
	round    int
	spans    []span
}

func newSpanLog(workload string, round int) *spanLog {
	return &spanLog{t0: time.Now(), workload: workload, round: round}
}

// begin opens a span under parent and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		Name: name, Start: time.Since(l.t0).Seconds(), Parent: parent,
		Workload: l.workload, Round: l.round,
	})
	return len(l.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	if l == nil {
		return 0
	}
	s := &l.spans[id]
	s.End = time.Since(l.t0).Seconds()
	return s.End - s.Start
}

// totals returns, per span name, the summed duration and the summed self
// time (duration minus the part covered by direct children).
func (l *spanLog) totals() (dur, self map[string]float64) {
	dur, self = map[string]float64{}, map[string]float64{}
	if l == nil {
		return dur, self
	}
	child := make([]float64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range l.spans {
		d := s.End - s.Start
		dur[s.Name] += d
		self[s.Name] += d - child[i]
	}
	return dur, self
}

func (l *spanLog) writeJSON(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
