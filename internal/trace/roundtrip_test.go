package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sync"
	"testing"
	"unicode/utf8"
)

// decodeChrome parses WriteChromeJSON's output with encoding/json.
func decodeChrome(t *testing.T, r io.Reader) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatalf("import: %v", err)
	}
	return doc.TraceEvents
}

// chromeOf is the complete ("X") record the export promises for e: "cat" is
// kind:group, times in microseconds, the rank as the thread id.
func chromeOf(e Event) chromeEvent {
	return chromeEvent{Name: e.Name, Cat: string(e.Kind) + ":" + e.Group, Ph: "X",
		Ts: e.Start * 1e6, Dur: e.Dur * 1e6, Tid: e.Rank}
}

// TestChromeJSONRoundTripExact round-trips a trace through the JSON export
// and asserts record-for-record equality with the promised encoding.
func TestChromeJSONRoundTripExact(t *testing.T) {
	src := &Trace{Events: []Event{
		{Rank: 0, Kind: Compute, Name: "F s0 mb0", Start: 0, Dur: 0.5},
		{Rank: 3, Kind: Comm, Group: "tp", Name: "tp.collective", Start: 0.25, Dur: 0.125},
		{Rank: 1, Kind: Idle, Group: "pp", Name: "bubble", Start: 1.5, Dur: 2},
		{Rank: 2, Kind: Fault, Group: "ft", Name: "crash", Start: 4, Dur: 0},
	}}
	var buf bytes.Buffer
	if err := src.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	got := decodeChrome(t, &buf)
	if len(got) != len(src.Events) {
		t.Fatalf("got %d events, want %d", len(got), len(src.Events))
	}
	for i, e := range src.Events {
		if got[i] != chromeOf(e) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], chromeOf(e))
		}
	}
}

// TestTraceConcurrentAdd hammers one Trace from many goroutines mixing Add
// with every read method — the race-detector target for the shared-trace
// fix (run via `make race`).
func TestTraceConcurrentAdd(t *testing.T) {
	tr := &Trace{}
	const ranks, perRank = 8, 200
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				tr.Add(Event{Rank: rank, Kind: Compute, Name: "op", Start: float64(i), Dur: 1})
				if i%17 == 0 {
					tr.Makespan()
					tr.TotalDur(rank, Compute, "")
					tr.Ranks()
					tr.ASCIITimeline(rank, 16)
				}
			}
		}(r)
	}
	wg.Wait()
	if got := len(tr.Events); got != ranks*perRank {
		t.Fatalf("got %d events, want %d", got, ranks*perRank)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorConcurrentRecord covers the Collector path used by live runs
// (comm.Recorder + metrics events) under concurrency.
func TestCollectorConcurrentRecord(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.RecordComm(rank, "tp", 0.001)
				c.RecordEvent(Event{Rank: rank, Kind: Compute, Name: "op"})
				if i%25 == 0 {
					c.Snapshot()
				}
			}
		}(r)
	}
	wg.Wait()
	if got := len(c.Snapshot().Events); got != 8*200 {
		t.Fatalf("got %d events, want %d", got, 8*200)
	}
}

// FuzzChromeJSONRoundTrip asserts the export survives encoding/json exactly
// for any finite, valid-UTF-8 input: float64 JSON numbers round-trip, so the
// decoded record equals the promised one field for field. Inputs the JSON
// encoding cannot represent faithfully are skipped: NaN/Inf (encoding/json
// rejects them, as it does a time the µs scaling overflows) and invalid UTF-8
// (replaced with U+FFFD).
func FuzzChromeJSONRoundTrip(f *testing.F) {
	f.Add(0, "compute", "F s0 mb0", "", 0.0, 1.0)
	f.Add(3, "comm", "tp.collective", "tp", 0.1, 0.003)
	f.Add(-1, "idle", "wait: stage", "p:p", 1e-9, 1e300)
	f.Add(1<<20, "fault", "crash ☠", "ft", 123.456, 0.0)
	f.Fuzz(func(t *testing.T, rank int, kind, name, group string, start, dur float64) {
		if !utf8.ValidString(kind) || !utf8.ValidString(name) || !utf8.ValidString(group) {
			t.Skip("json replaces invalid UTF-8")
		}
		for _, v := range []float64{start, dur} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("json rejects non-finite numbers")
			}
			if v != 0 && math.Abs(v) > math.MaxFloat64/1e6 {
				t.Skip("µs scaling overflows")
			}
		}
		e := Event{Rank: rank, Kind: Kind(kind), Name: name, Group: group, Start: start, Dur: dur}
		var buf bytes.Buffer
		if err := (&Trace{Events: []Event{e}}).WriteChromeJSON(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		got := decodeChrome(t, &buf)
		if len(got) != 1 {
			t.Fatalf("got %d events, want 1", len(got))
		}
		if got[0] != chromeOf(e) {
			t.Errorf("got %+v, want %+v", got[0], chromeOf(e))
		}
	})
}
