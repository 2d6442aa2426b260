package comm

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llama4d/internal/tensor"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	x := tensor.FromSlice([]float32{1, 2, 3}, 3)
	done := make(chan *tensor.Tensor)
	go func() { done <- w.Recv(1, 0, 7) }()
	w.Send(0, 1, 7, x)
	got := <-done
	if !tensor.BitwiseEqual(got, x) {
		t.Fatalf("Recv = %v", got.Data)
	}
	// Sends copy: mutating the original must not affect the received tensor.
	x.Data[0] = 99
	if got.Data[0] == 99 {
		t.Fatal("Send must deep-copy")
	}
}

func TestSendIsAsync(t *testing.T) {
	w := NewWorld(2)
	// Multiple sends complete without any receiver (decoupled P2P).
	for i := 0; i < 10; i++ {
		w.Send(0, 1, i, tensor.New(4))
	}
	for i := 0; i < 10; i++ {
		w.Recv(1, 0, i)
	}
}

func TestSendTagsAreIndependent(t *testing.T) {
	w := NewWorld(2)
	a := tensor.FromSlice([]float32{1}, 1)
	b := tensor.FromSlice([]float32{2}, 1)
	w.Send(0, 1, 100, a)
	w.Send(0, 1, 200, b)
	// Receive in the opposite order of sending.
	if got := w.Recv(1, 0, 200); got.Data[0] != 2 {
		t.Fatalf("tag 200 = %v", got.Data)
	}
	if got := w.Recv(1, 0, 100); got.Data[0] != 1 {
		t.Fatalf("tag 100 = %v", got.Data)
	}
}

func TestSendRecvFIFOPerTag(t *testing.T) {
	w := NewWorld(2)
	for i := 0; i < 5; i++ {
		w.Send(0, 1, 0, tensor.FromSlice([]float32{float32(i)}, 1))
	}
	for i := 0; i < 5; i++ {
		if got := w.Recv(1, 0, 0); got.Data[0] != float32(i) {
			t.Fatalf("message %d out of order: %v", i, got.Data)
		}
	}
}

func TestRankBoundsPanic(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank must panic")
		}
	}()
	w.Send(0, 5, 0, tensor.New(1))
}

func TestAllGatherOrderAndContent(t *testing.T) {
	w := NewWorld(4)
	g := w.NewGroup([]int{0, 1, 2, 3})
	results := make([]*tensor.Tensor, 4)
	if err := w.RunSPMD(func(rank int) {
		x := tensor.FromSlice([]float32{float32(rank), float32(rank)}, 1, 2)
		results[rank] = g.AllGather(rank, x)
	}); err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice([]float32{0, 0, 1, 1, 2, 2, 3, 3}, 4, 2)
	for r, res := range results {
		if !tensor.BitwiseEqual(res, want) {
			t.Fatalf("rank %d AllGather = %v", r, res.Data)
		}
	}
}

func TestAllGatherNonTrivialRankOrder(t *testing.T) {
	// Group rank order (not global rank order) defines concatenation order.
	w := NewWorld(4)
	g := w.NewGroup([]int{3, 1})
	results := make(map[int]*tensor.Tensor)
	var mu sync.Mutex
	if err := w.RunSPMD(func(rank int) {
		if !g.Contains(rank) {
			return
		}
		x := tensor.FromSlice([]float32{float32(rank)}, 1, 1)
		res := g.AllGather(rank, x)
		mu.Lock()
		results[rank] = res
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 1}
	for r, res := range results {
		for i, v := range want {
			if res.Data[i] != v {
				t.Fatalf("rank %d: got %v want %v", r, res.Data, want)
			}
		}
	}
}

func TestReduceScatter(t *testing.T) {
	w := NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	results := make([]*tensor.Tensor, 2)
	if err := w.RunSPMD(func(rank int) {
		x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1)
		if rank == 1 {
			x = tensor.FromSlice([]float32{10, 20, 30, 40}, 4, 1)
		}
		results[rank] = g.ReduceScatter(rank, x)
	}); err != nil {
		t.Fatal(err)
	}
	if results[0].Data[0] != 11 || results[0].Data[1] != 22 {
		t.Fatalf("rank 0 ReduceScatter = %v", results[0].Data)
	}
	if results[1].Data[0] != 33 || results[1].Data[1] != 44 {
		t.Fatalf("rank 1 ReduceScatter = %v", results[1].Data)
	}
}

func TestAllReduce(t *testing.T) {
	w := NewWorld(3)
	g := w.NewGroup([]int{0, 1, 2})
	results := make([]*tensor.Tensor, 3)
	if err := w.RunSPMD(func(rank int) {
		x := tensor.FromSlice([]float32{float32(rank + 1)}, 1)
		results[rank] = g.AllReduce(rank, x)
	}); err != nil {
		t.Fatal(err)
	}
	for r := range results {
		if results[r].Data[0] != 6 {
			t.Fatalf("rank %d AllReduce = %v", r, results[r].Data)
		}
	}
}

func TestAllReduceDeterministicBitwise(t *testing.T) {
	// The same inputs must reduce to bitwise-identical outputs across runs:
	// the determinism §6.2's methodology requires.
	run := func() *tensor.Tensor {
		w := NewWorld(4)
		g := w.NewGroup([]int{0, 1, 2, 3})
		results := make([]*tensor.Tensor, 4)
		if err := w.RunSPMD(func(rank int) {
			rng := rand.New(rand.NewSource(int64(rank)))
			x := tensor.RandN(rng, 1e3, 64)
			results[rank] = g.AllReduce(rank, x)
		}); err != nil {
			t.Fatal(err)
		}
		for r := 1; r < 4; r++ {
			if !tensor.BitwiseEqual(results[0], results[r]) {
				t.Fatal("AllReduce results differ across ranks")
			}
		}
		return results[0]
	}
	a, b := run(), run()
	if !tensor.BitwiseEqual(a, b) {
		t.Fatal("AllReduce must be bitwise deterministic across runs")
	}
}

func TestBroadcast(t *testing.T) {
	w := NewWorld(3)
	g := w.NewGroup([]int{0, 1, 2})
	results := make([]*tensor.Tensor, 3)
	if err := w.RunSPMD(func(rank int) {
		var x *tensor.Tensor
		if rank == 1 {
			x = tensor.FromSlice([]float32{7, 8}, 2)
		}
		results[rank] = g.Broadcast(rank, 1, x)
	}); err != nil {
		t.Fatal(err)
	}
	for r := range results {
		if results[r].Data[0] != 7 || results[r].Data[1] != 8 {
			t.Fatalf("rank %d Broadcast = %v", r, results[r].Data)
		}
	}
}

func TestBarrierAndSequencing(t *testing.T) {
	w := NewWorld(4)
	g := w.NewGroup([]int{0, 1, 2, 3})
	// Many sequential collectives: the per-rank op counters must stay aligned.
	results := make([]*tensor.Tensor, 4)
	if err := w.RunSPMD(func(rank int) {
		for i := 0; i < 20; i++ {
			g.Barrier(rank)
			x := tensor.FromSlice([]float32{float32(rank)}, 1)
			results[rank] = g.AllReduce(rank, x)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r := range results {
		if results[r].Data[0] != 6 {
			t.Fatalf("rank %d final AllReduce = %v", r, results[r].Data)
		}
	}
}

func TestDisjointGroupsRunConcurrently(t *testing.T) {
	w := NewWorld(4)
	g01 := w.NewGroup([]int{0, 1})
	g23 := w.NewGroup([]int{2, 3})
	sums := make([]float32, 4)
	if err := w.RunSPMD(func(rank int) {
		g := g01
		if rank >= 2 {
			g = g23
		}
		x := tensor.FromSlice([]float32{float32(rank)}, 1)
		sums[rank] = g.AllReduce(rank, x).Data[0]
	}); err != nil {
		t.Fatal(err)
	}
	if sums[0] != 1 || sums[1] != 1 || sums[2] != 5 || sums[3] != 5 {
		t.Fatalf("disjoint group sums = %v", sums)
	}
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	m := newRecordingMeter()
	w.Meter = m
	g := w.NewGroup([]int{0, 1})
	g.Label = "g"
	if err := w.RunSPMD(func(rank int) {
		g.AllGather(rank, tensor.New(8))
		g.AllReduce(rank, tensor.New(8))
	}); err != nil {
		t.Fatal(err)
	}
	got := m.total()
	ag, ar := got[OpKey{Group: "g", Op: "allgather"}], got[OpKey{Group: "g", Op: "allreduce"}]
	if ag.Msgs != 2 || ar.Msgs != 2 {
		t.Fatalf("op counts: ag=%d ar=%d", ag.Msgs, ar.Msgs)
	}
	if ag.Bytes != 2*8*4 {
		t.Fatalf("allgather bytes = %d", ag.Bytes)
	}
}

func TestGroupLocalRankMapping(t *testing.T) {
	w := NewWorld(8)
	g := w.NewGroup([]int{6, 2, 4})
	if g.Size() != 3 {
		t.Fatal("size")
	}
	if g.LocalRank(2) != 1 || g.GlobalRank(0) != 6 {
		t.Fatal("rank mapping wrong")
	}
	if g.Contains(3) {
		t.Fatal("Contains(3) should be false")
	}
}

func TestDuplicateRankPanics(t *testing.T) {
	w := NewWorld(4)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate rank must panic")
		}
	}()
	w.NewGroup([]int{1, 1})
}

func TestRunSPMDPropagatesPanic(t *testing.T) {
	// A rank that panics outside any collective still fails the run.
	err := NewWorld(2).RunSPMD(func(rank int) {
		if rank == 1 {
			panic("boom")
		}
	})
	var rp *RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 1 {
		t.Fatalf("err = %v, want *RankPanicError{Rank: 1}", err)
	}
}

func TestReduceScatterRoundTripWithAllGather(t *testing.T) {
	// AllGather(ReduceScatter(x)) == sum of inputs: the ZeRO decomposition of
	// all-reduce the paper's FSDP uses.
	w := NewWorld(4)
	g := w.NewGroup([]int{0, 1, 2, 3})
	inputs := make([]*tensor.Tensor, 4)
	want := tensor.New(8, 2)
	for r := range inputs {
		rng := rand.New(rand.NewSource(int64(r + 1)))
		inputs[r] = tensor.RandN(rng, 1, 8, 2)
		want.Add(inputs[r])
	}
	results := make([]*tensor.Tensor, 4)
	if err := w.RunSPMD(func(rank int) {
		shard := g.ReduceScatter(rank, inputs[rank])
		results[rank] = g.AllGather(rank, shard)
	}); err != nil {
		t.Fatal(err)
	}
	for r := range results {
		if tensor.MaxDiff(results[r], want) > 1e-6 {
			t.Fatalf("rank %d RS+AG != AllReduce, diff %v", r, tensor.MaxDiff(results[r], want))
		}
	}
}

func TestAllReduceMatchesSequentialOrder(t *testing.T) {
	// The deterministic reduction must equal a sequential sum in local-rank
	// order, bitwise — the reference-emulation trick of §6.2.
	w := NewWorld(3)
	g := w.NewGroup([]int{0, 1, 2})
	inputs := make([]*tensor.Tensor, 3)
	for r := range inputs {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		inputs[r] = tensor.RandN(rng, 1e2, 16)
	}
	ref := inputs[0].Clone()
	ref.Add(inputs[1])
	ref.Add(inputs[2])
	results := make([]*tensor.Tensor, 3)
	if err := w.RunSPMD(func(rank int) {
		results[rank] = g.AllReduce(rank, inputs[rank])
	}); err != nil {
		t.Fatal(err)
	}
	if !tensor.BitwiseEqual(results[0], ref) {
		t.Fatalf("AllReduce must match sequential rank-order sum bitwise; maxdiff=%v",
			tensor.MaxDiff(results[0], ref))
	}
}

func TestReduceScatterValuesFinite(t *testing.T) {
	w := NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	results := make([]*tensor.Tensor, 2)
	if err := w.RunSPMD(func(rank int) {
		x := tensor.New(4, 4)
		x.Fill(float32(rank) + 0.5)
		results[rank] = g.ReduceScatter(rank, x)
	}); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		for _, v := range res.Data {
			if math.IsNaN(float64(v)) || v != 2 {
				t.Fatalf("ReduceScatter values = %v", res.Data)
			}
		}
	}
}

func BenchmarkAllReduce4Ranks(b *testing.B) {
	w := NewWorld(4)
	g := w.NewGroup([]int{0, 1, 2, 3})
	x := tensor.New(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunSPMD(func(rank int) {
			g.AllReduce(rank, x)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSendRecv(b *testing.B) {
	w := NewWorld(2)
	x := tensor.New(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(0, 1, 0, x)
		w.Recv(1, 0, 0)
	}
}

func TestCommRecorderTimings(t *testing.T) {
	w := NewWorld(2)
	rec := &fakeRecorder{}
	w.Recorder = rec
	g := w.NewGroup([]int{0, 1})
	g.Label = "tp"
	if err := w.RunSPMD(func(rank int) {
		g.AllReduce(rank, tensor.New(4))
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(rec.events))
	}
	for _, e := range rec.events {
		if e.label != "tp" || e.dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
}

type fakeRecorder struct {
	mu     sync.Mutex
	events []struct {
		rank  int
		label string
		dur   float64
	}
}

func (f *fakeRecorder) RecordComm(rank int, label string, dur float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events = append(f.events, struct {
		rank  int
		label string
		dur   float64
	}{rank, label, dur})
}

// --- fault tolerance: abort, failure detection, World.RunSPMD ---

func TestWorldRunSPMDUnblocksPeersOnPanic(t *testing.T) {
	// The latent deadlock class: one rank dies before entering a
	// collective, leaving its peers blocked forever on the slot channel.
	// World.RunSPMD aborts the world on the panic, so the survivors
	// observe the failure and the call returns a typed error instead of
	// hanging the test binary.
	w := NewWorld(4)
	g := w.NewGroup([]int{0, 1, 2, 3})
	err := w.RunSPMD(func(rank int) {
		if rank == 2 {
			panic("injected death")
		}
		g.AllReduce(rank, tensor.FromSlice([]float32{1}, 1))
	})
	if err == nil {
		t.Fatal("RunSPMD returned nil despite a dead rank")
	}
	var rp *RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 2 {
		t.Fatalf("err = %v, want *RankPanicError{Rank: 2}", err)
	}
}

// A kernel panic above the parallel threshold happens on a tensor.ParallelRows
// worker, not on the rank's goroutine; it must still surface as the rank's
// death — a typed *RankPanicError with the peers released — not kill the
// process.
func TestWorldRunSPMDRecoversParallelRowsWorkerPanic(t *testing.T) {
	w := NewWorld(3)
	g := w.NewGroup([]int{0, 1, 2})
	err := w.RunSPMD(func(rank int) {
		if rank == 1 {
			tensor.ParallelRows(4, 2, func(lo, hi int) {
				if lo > 0 {
					_ = make([]float32, 2)[lo+hi] // index out of range in the second chunk
				}
			})
		}
		g.AllReduce(rank, tensor.FromSlice([]float32{1}, 1))
	})
	var rp *RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 1 {
		t.Fatalf("err = %v, want *RankPanicError{Rank: 1}", err)
	}
}

func TestWorldRunSPMDUnblocksRecvOnPanic(t *testing.T) {
	w := NewWorld(2)
	err := w.RunSPMD(func(rank int) {
		if rank == 0 {
			panic("sender died before sending")
		}
		w.Recv(1, 0, 9)
	})
	var rp *RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 0 {
		t.Fatalf("err = %v, want *RankPanicError{Rank: 0}", err)
	}
}

func TestDeadlineDetectorFiresOnMissingPeer(t *testing.T) {
	// A stalled peer never dies, so no panic aborts the world; the
	// Timeout failure detector must catch the hang instead.
	w := NewWorld(2)
	w.Timeout = 100 * time.Millisecond
	g := w.NewGroup([]int{0, 1})
	start := time.Now()
	err := w.RunSPMD(func(rank int) {
		if rank == 1 {
			return // never joins the collective
		}
		g.Barrier(rank)
	})
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("detection took %v", elapsed)
	}
}

func TestAbortedWorldRefusesWork(t *testing.T) {
	w := NewWorld(2)
	w.Abort(errDead)
	if err := w.RunSPMD(func(rank int) {}); !errors.Is(err, errDead) {
		t.Fatalf("aborted world ran anyway: %v", err)
	}
	// Blocked ops on an aborted world panic with *AbortError rather than
	// waiting forever.
	defer func() {
		if _, ok := recover().(*AbortError); !ok {
			t.Fatal("Recv on aborted world must panic with *AbortError")
		}
	}()
	w.Recv(1, 0, 1)
}

var errDead = errors.New("dead world")

type flipInjector struct{ fired atomic.Bool }

func (f *flipInjector) BeforeOp(rank int, op string, x *tensor.Tensor) error {
	if rank == 0 && x != nil && x.Len() > 0 && !f.fired.Swap(true) {
		x.Data[0] = 42
	}
	return nil
}

func TestFaultInjectorInterceptsCollectives(t *testing.T) {
	w := NewWorld(2)
	w.Fault = &flipInjector{}
	g := w.NewGroup([]int{0, 1})
	results := make([]*tensor.Tensor, 2)
	if err := w.RunSPMD(func(rank int) {
		results[rank] = g.AllReduce(rank, tensor.FromSlice([]float32{1}, 1))
	}); err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		if res.Data[0] != 43 { // corrupted 42 + healthy 1
			t.Fatalf("rank %d sum = %v, fault hook did not land inside the collective", r, res.Data[0])
		}
	}
}
