// Package trace provides the per-rank event traces behind the paper's
// performance-debugging methodology (§6.1): ranks record compute and
// communication events; analyses stack traces per process group to find the
// slowest member; and traces export to Chrome's trace-event JSON for visual
// inspection.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind classifies a trace event.
type Kind string

// Event kinds mirroring the paper's profiling categories, plus the fault
// events of the fault-tolerance subsystem (internal/ft): injected faults,
// failure detection, and checkpoint/restore land on the timeline so the
// §6.1 localisation workflow sees recovery alongside compute and comm.
const (
	Compute Kind = "compute"
	Comm    Kind = "comm"
	Idle    Kind = "idle"
	Fault   Kind = "fault"

	// Overlap marks a nonblocking (handle-based) communication span from
	// issue to completion — time that runs concurrently with compute rather
	// than stalling the rank. Exposed stall time, if any, is the tail of the
	// span the rank spent blocked in Wait; metrics accounts it separately.
	Overlap Kind = "overlap"
)

// Event is one interval on one rank's timeline.
type Event struct {
	Rank  int
	Kind  Kind
	Name  string  // e.g. "tp.allgather", "attn.fwd"
	Group string  // parallelism dimension: "tp", "cp", "pp", "dp", ""
	Start float64 // seconds
	Dur   float64
}

// End returns the event's end time.
func (e Event) End() float64 { return e.Start + e.Dur }

// Trace is a collection of events across ranks. Add and the read methods
// are safe for concurrent use by rank goroutines; direct access to Events
// is for single-goroutine consumers (analyses over a finished or
// Snapshot-copied trace).
type Trace struct {
	mu     sync.Mutex
	Events []Event
}

// Add appends an event. Safe for concurrent use.
func (t *Trace) Add(e Event) {
	t.mu.Lock()
	t.Events = append(t.Events, e)
	t.mu.Unlock()
}

// rankEventsLocked returns one rank's events sorted by start time; t.mu
// must be held.
func (t *Trace) rankEventsLocked(rank int) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Ranks returns the sorted set of ranks appearing in the trace.
func (t *Trace) Ranks() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[int]bool{}
	for _, e := range t.Events {
		seen[e.Rank] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// TotalDur sums the durations of a rank's events matching kind and group
// ("" matches any).
func (t *Trace) TotalDur(rank int, kind Kind, group string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, e := range t.Events {
		if e.Rank != rank {
			continue
		}
		if kind != "" && e.Kind != kind {
			continue
		}
		if group != "" && e.Group != group {
			continue
		}
		s += e.Dur
	}
	return s
}

// Makespan returns the latest event end time.
func (t *Trace) Makespan() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.makespanLocked()
}

func (t *Trace) makespanLocked() float64 {
	var m float64
	for _, e := range t.Events {
		if e.End() > m {
			m = e.End()
		}
	}
	return m
}

// Collector accumulates communication timings from live runs into a Trace.
// It implements the comm package's Recorder interface and is safe for
// concurrent use by all ranks.
type Collector struct {
	mu sync.Mutex
	T  Trace
}

// RecordComm appends one collective's wall time for one rank.
func (c *Collector) RecordComm(rank int, label string, dur float64) {
	c.mu.Lock()
	c.T.Add(Event{Rank: rank, Kind: Comm, Group: label, Name: label + ".collective", Dur: dur})
	c.mu.Unlock()
}

// RecordEvent appends an arbitrary event — the fault-tolerance controller
// records fault injections, detections, and checkpoint/restore transitions
// through this entry point.
func (c *Collector) RecordEvent(e Event) {
	c.mu.Lock()
	c.T.Add(e)
	c.mu.Unlock()
}

// Snapshot returns a copy of the collected trace.
func (c *Collector) Snapshot() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &Trace{Events: append([]Event(nil), c.T.Events...)}
	return out
}

// chromeEvent is the Chrome trace-event JSON schema ("X" complete events).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChromeJSON exports the trace in Chrome's about://tracing format.
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.Events))
	for _, e := range t.Events {
		events = append(events, chromeEvent{
			Name: e.Name, Cat: string(e.Kind) + ":" + e.Group, Ph: "X",
			Ts: e.Start * 1e6, Dur: e.Dur * 1e6, Pid: 0, Tid: e.Rank,
		})
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// ASCIITimeline renders a rank's timeline as a fixed-width strip, for
// terminal inspection (cmd/traceview).
func (t *Trace) ASCIITimeline(rank, width int) string {
	t.mu.Lock()
	events := t.rankEventsLocked(rank)
	total := t.makespanLocked()
	t.mu.Unlock()
	if len(events) == 0 || width <= 0 {
		return ""
	}
	row := make([]byte, width)
	for i := range row {
		row[i] = '.'
	}
	for _, e := range events {
		lo := int(e.Start / total * float64(width))
		hi := int(e.End() / total * float64(width))
		if hi >= width {
			hi = width - 1
		}
		ch := byte('#')
		switch e.Kind {
		case Comm:
			ch = '~'
		case Overlap:
			ch = '^'
		case Fault:
			ch = '!'
		}
		for i := lo; i <= hi; i++ {
			row[i] = ch
		}
	}
	return fmt.Sprintf("rank %3d |%s|", rank, string(row))
}
