package metrics

import (
	"strings"
	"sync"
	"testing"

	"llama4d/internal/pp"
)

// TestRegistryAccumulation drives the three hook interfaces directly and
// checks the report folds them correctly.
func TestRegistryAccumulation(t *testing.T) {
	r := NewRegistry(2)
	r.BeginStep(3)
	r.RecordOp(0, "tp", "allreduce", 100)
	r.RecordOp(0, "tp", "allreduce", 50)
	r.RecordOp(1, "p2p", "send", 64)
	r.RecordComm(0, "tp", 0.001)
	r.OpExecuted(0, pp.Op{Kind: pp.Fwd, Stage: 0, MB: 0}, 0.002, 0.0005, 4096, 2)
	r.OpExecuted(0, pp.Op{Kind: pp.Bwd, Stage: 0, MB: 0}, 0.003, 0, 1024, 1)
	rep := r.EndStep()

	if rep.Step != 3 {
		t.Errorf("step = %d, want 3", rep.Step)
	}
	if v := rep.Ranks[0].Comm["tp/allreduce"]; v != (OpVolume{Bytes: 150, Msgs: 2}) {
		t.Errorf("rank 0 tp/allreduce = %+v, want {150 2}", v)
	}
	if v := rep.Ranks[1].Comm["p2p/send"]; v != (OpVolume{Bytes: 64, Msgs: 1}) {
		t.Errorf("rank 1 p2p/send = %+v, want {64 1}", v)
	}
	if rep.Ranks[0].PeakActivationBytes != 4096 {
		t.Errorf("peak activation = %d, want high-water 4096", rep.Ranks[0].PeakActivationBytes)
	}
	if rep.Ranks[0].PeakLiveContexts != 2 {
		t.Errorf("peak contexts = %d, want 2", rep.Ranks[0].PeakLiveContexts)
	}
	if got := rep.Ranks[0].P2PWaitSeconds; got != 0.0005 {
		t.Errorf("p2p wait = %v, want 0.0005", got)
	}
	wantOps := []pp.Op{{Kind: pp.Fwd}, {Kind: pp.Bwd}}
	if len(rep.Ranks[0].Ops) != 2 || rep.Ranks[0].Ops[0] != wantOps[0] || rep.Ranks[0].Ops[1] != wantOps[1] {
		t.Errorf("op log = %+v, want %+v", rep.Ranks[0].Ops, wantOps)
	}
	if got := rep.TotalCommBytes(""); got != 214 {
		t.Errorf("TotalCommBytes = %d, want 214", got)
	}
	if got := rep.TotalCommBytes("tp"); got != 150 {
		t.Errorf("TotalCommBytes(tp) = %d, want 150", got)
	}

	// A new step starts from zero.
	r.BeginStep(4)
	rep = r.EndStep()
	if len(rep.Ranks[0].Comm) != 0 || rep.Ranks[0].PeakActivationBytes != 0 || len(rep.Ranks[0].Ops) != 0 {
		t.Errorf("BeginStep did not reset rank state: %+v", rep.Ranks[0])
	}
}

// TestEndStepFoldsOnlyItsOwnEvents steps one 4-rank registry 50 times and
// checks two things against 50 fresh registries fed the same calls: every
// rank's comm and compute seconds match exactly (earlier steps' events never
// leak into a later fold), and the slice EndStep folds — events[stepEvent0:]
// — stays the size of one step while the full trace keeps every step.
func TestEndStepFoldsOnlyItsOwnEvents(t *testing.T) {
	const ranks, steps = 4, 50
	feed := func(r *Registry, step int) {
		for rank := 0; rank < ranks; rank++ {
			r.RecordComm(rank, "tp", 1e-3*float64(step+rank+1))
			r.OpExecuted(rank, pp.Op{Kind: pp.Fwd, MB: step}, 3e-3*float64(rank+1), 1e-3, 0, 1)
			r.OpExecuted(rank, pp.Op{Kind: pp.Bwd, MB: step}, 5e-3*float64(step+1), 0, 0, 1)
		}
	}
	const perStep = ranks * 4 // one comm, two compute, one P2P-wait idle event per rank
	long := NewRegistry(ranks)
	for step := 0; step < steps; step++ {
		long.BeginStep(int64(step))
		feed(long, step)
		if visited := len(long.events) - long.stepEvent0; visited != perStep {
			t.Fatalf("step %d: EndStep would fold %d events, want %d", step, visited, perStep)
		}
		got := long.EndStep()

		fresh := NewRegistry(ranks)
		fresh.BeginStep(int64(step))
		feed(fresh, step)
		want := fresh.EndStep()
		for rank := range want.Ranks {
			g, w := got.Ranks[rank], want.Ranks[rank]
			if g.CommSeconds != w.CommSeconds || g.ComputeSeconds != w.ComputeSeconds || g.P2PWaitSeconds != w.P2PWaitSeconds {
				t.Fatalf("step %d rank %d: comm/compute/p2p %v/%v/%v, fresh registry says %v/%v/%v", step, rank,
					g.CommSeconds, g.ComputeSeconds, g.P2PWaitSeconds, w.CommSeconds, w.ComputeSeconds, w.P2PWaitSeconds)
			}
		}
	}
	if got := len(long.Trace().Events); got != steps*perStep {
		t.Fatalf("Trace() holds %d events, want all %d", got, steps*perStep)
	}
}

// TestRegistryRejectsUnknownRank documents the hard failure on
// out-of-registry ranks — a mis-wired cluster should crash, not corrupt a
// neighbouring rank's numbers.
func TestRegistryRejectsUnknownRank(t *testing.T) {
	r := NewRegistry(1)
	defer func() {
		if recover() == nil {
			t.Fatal("RecordOp on rank 5 of a 1-rank registry should panic")
		}
	}()
	r.RecordOp(5, "tp", "allreduce", 1)
}

// TestRegistryConcurrent hammers one registry from simulated rank goroutines
// — the race-detector target for the lock-sharded design (run via `make
// race`). Totals must also come out exact: no lost updates.
func TestRegistryConcurrent(t *testing.T) {
	const ranks, iters = 8, 300
	r := NewRegistry(ranks)
	r.BeginStep(0)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.RecordOp(rank, "tp", "allreduce", 8)
				r.RecordOp(rank, "p2p", "send", 4)
				r.RecordComm(rank, "tp", 1e-6)
				r.OpExecuted(rank, pp.Op{Kind: pp.Fwd, Stage: 0, MB: i},
					1e-6, 0, int64(i), i%3)
				if i%50 == 0 {
					r.Trace()
				}
			}
		}(rank)
	}
	wg.Wait()
	rep := r.EndStep()
	for _, rr := range rep.Ranks {
		if v := rr.Comm["tp/allreduce"]; v != (OpVolume{Bytes: 8 * iters, Msgs: iters}) {
			t.Errorf("rank %d tp/allreduce = %+v, want {%d %d}", rr.Rank, v, 8*iters, iters)
		}
		if len(rr.Ops) != iters {
			t.Errorf("rank %d logged %d ops, want %d", rr.Rank, len(rr.Ops), iters)
		}
		if rr.PeakActivationBytes != iters-1 {
			t.Errorf("rank %d peak bytes = %d, want %d", rr.Rank, rr.PeakActivationBytes, iters-1)
		}
	}
	if got := rep.TotalCommBytes(""); got != ranks*iters*12 {
		t.Errorf("world comm bytes = %d, want %d", got, ranks*iters*12)
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		999:              "999",
		1500:             "1.50k",
		2_000_000:        "2.00M",
		3_500_000_000:    "3.50G",
		1_250_000_000_00: "125.00G",
		4e12:             "4.00T",
	}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	r := NewRegistry(1)
	r.BeginStep(0)
	r.RecordOp(0, "tp", "allreduce", 96)
	rep := r.EndStep()
	table := rep.Table()
	for _, want := range []string{"rank", "comm bytes", "tp/allreduce", "96"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
