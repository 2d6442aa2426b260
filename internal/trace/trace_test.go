package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func sample() *Trace {
	t := &Trace{}
	t.Add(Event{Rank: 0, Kind: Compute, Name: "fwd", Start: 0, Dur: 2})
	t.Add(Event{Rank: 0, Kind: Comm, Group: "tp", Name: "ag", Start: 2, Dur: 1})
	t.Add(Event{Rank: 1, Kind: Compute, Name: "fwd", Start: 0, Dur: 3})
	t.Add(Event{Rank: 1, Kind: Comm, Group: "cp", Name: "ag", Start: 3, Dur: 0.5})
	return t
}

func TestRankEventsSorted(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Rank: 0, Kind: Compute, Start: 5, Dur: 1})
	tr.Add(Event{Rank: 0, Kind: Compute, Start: 1, Dur: 1})
	tr.Add(Event{Rank: 1, Kind: Compute, Start: 0, Dur: 1})
	tr.mu.Lock()
	ev := tr.rankEventsLocked(0)
	tr.mu.Unlock()
	if len(ev) != 2 || ev[0].Start != 1 {
		t.Fatalf("events %+v", ev)
	}
}

func TestRanksAndMakespan(t *testing.T) {
	tr := sample()
	ranks := tr.Ranks()
	if len(ranks) != 2 || ranks[0] != 0 || ranks[1] != 1 {
		t.Fatalf("ranks %v", ranks)
	}
	if tr.Makespan() != 3.5 {
		t.Fatalf("makespan %v", tr.Makespan())
	}
}

func TestTotalDurFilters(t *testing.T) {
	tr := sample()
	if d := tr.TotalDur(0, Compute, ""); d != 2 {
		t.Fatalf("compute dur %v", d)
	}
	if d := tr.TotalDur(0, Comm, "tp"); d != 1 {
		t.Fatalf("tp comm dur %v", d)
	}
	if d := tr.TotalDur(0, Comm, "cp"); d != 0 {
		t.Fatalf("cp comm dur %v", d)
	}
	if d := tr.TotalDur(1, "", ""); d != 3.5 {
		t.Fatalf("all dur %v", d)
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	tr := sample()
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	events := doc["traceEvents"]
	if len(events) != 4 {
		t.Fatalf("%d events", len(events))
	}
	if events[0]["ph"] != "X" {
		t.Fatalf("phase %v", events[0]["ph"])
	}
	// Times are exported in microseconds.
	if events[0]["dur"].(float64) != 2e6 {
		t.Fatalf("dur %v", events[0]["dur"])
	}
}

func TestASCIITimeline(t *testing.T) {
	tr := sample()
	line := tr.ASCIITimeline(0, 20)
	if !strings.Contains(line, "#") || !strings.Contains(line, "~") {
		t.Fatalf("timeline %q must show compute and comm", line)
	}
	if tr.ASCIITimeline(99, 20) != "" {
		t.Fatal("unknown rank must render empty")
	}
}
