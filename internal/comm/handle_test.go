package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"llama4d/internal/tensor"
)

// Satellite regression: a send blocked on a full mailbox (stalled receiver)
// must trip the failure-detection deadline instead of hanging until some
// other rank aborts. Before the fix, Send's select had no deadline arm.
func TestSendDeadlineFiresOnFullMailbox(t *testing.T) {
	w := NewWorld(2)
	w.Timeout = 50 * time.Millisecond
	err := w.RunSPMD(func(rank int) {
		if rank != 0 {
			return // rank 1 never receives
		}
		for i := 0; i <= mailboxDepth; i++ {
			w.Send(0, 1, 3, tensor.New(1))
		}
	})
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("blocked Send returned %v, want *DeadlineError", err)
	}
	if de.Op != "p2p.send" {
		t.Fatalf("deadline op = %q, want p2p.send", de.Op)
	}
}

// Satellite regression: aborting a world must drain its mailboxes so a
// retry can never receive a stale in-flight tensor from the failed step.
func TestAbortDrainsMailboxes(t *testing.T) {
	w := NewWorld(2)
	for i := 0; i < 3; i++ {
		w.Send(0, 1, i, tensor.New(2))
	}
	w.mu.Lock()
	n := len(w.mail)
	w.mu.Unlock()
	if n != 3 {
		t.Fatalf("pre-abort mailboxes = %d, want 3", n)
	}
	w.Abort(errors.New("injected"))
	w.mu.Lock()
	n = len(w.mail)
	nt := len(w.recvTail)
	w.mu.Unlock()
	if n != 0 || nt != 0 {
		t.Fatalf("post-abort mailboxes = %d, recv tails = %d, want 0, 0", n, nt)
	}
}

func TestIAllGatherMatchesBlockingAndInterops(t *testing.T) {
	w := NewWorld(4)
	g := w.NewGroup([]int{0, 1, 2, 3})
	g.Label = "dp"
	sync := make([]*tensor.Tensor, 4)
	if err := w.RunSPMD(func(rank int) {
		x := tensor.FromSlice([]float32{float32(rank), float32(rank) * 2}, 2)
		sync[rank] = g.AllGather(rank, x)
	}); err != nil {
		t.Fatal(err)
	}
	async := make([]*tensor.Tensor, 4)
	if err := w.RunSPMD(func(rank int) {
		x := tensor.FromSlice([]float32{float32(rank), float32(rank) * 2}, 2)
		// Ranks 0 and 1 use the blocking op, 2 and 3 the handle: the op
		// strings match, so they join the same collective.
		if rank < 2 {
			async[rank] = g.AllGather(rank, x)
			return
		}
		h := g.IAllGather(rank, x, tensor.New(8))
		async[rank] = h.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if !tensor.BitwiseEqual(sync[r], async[r]) {
			t.Fatalf("rank %d: async result diverges from blocking", r)
		}
	}
}

func TestIReduceScatterAndIAllReduceBitwise(t *testing.T) {
	w := NewWorld(3)
	g := w.NewGroup([]int{0, 1, 2})
	g.Label = "dp"
	mk := func(rank int) *tensor.Tensor {
		x := tensor.New(6)
		for i := range x.Data {
			x.Data[i] = float32(rank+1) * 0.1 * float32(i+1)
		}
		return x
	}
	syncRS := make([]*tensor.Tensor, 3)
	syncAR := make([]*tensor.Tensor, 3)
	if err := w.RunSPMD(func(rank int) {
		syncRS[rank] = g.ReduceScatter(rank, mk(rank))
		syncAR[rank] = g.AllReduce(rank, mk(rank))
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunSPMD(func(rank int) {
		// Issue both before waiting either: completion order is issue
		// order (sequence numbers claimed at issue), not Wait order.
		h1 := g.IReduceScatter(rank, mk(rank), tensor.New(2))
		h2 := g.IAllReduce(rank, mk(rank))
		ar := h2.Wait()
		rs := h1.Wait()
		if !tensor.BitwiseEqual(rs, syncRS[rank]) {
			panic(fmt.Sprintf("rank %d: IReduceScatter diverges", rank))
		}
		if !tensor.BitwiseEqual(ar, syncAR[rank]) {
			panic(fmt.Sprintf("rank %d: IAllReduce diverges", rank))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestISendIRecvFIFOAndPrepost(t *testing.T) {
	w := NewWorld(2)
	// Pre-post two receives for the same (from, to, tag) key before any
	// message exists: delivery must follow issue order.
	h1 := w.IRecv(1, 0, 9)
	h2 := w.IRecv(1, 0, 9)
	if h1.Done() || h2.Done() {
		t.Fatal("IRecv done before any send")
	}
	w.ISend(0, 1, 9, tensor.FromSlice([]float32{1}, 1)).Wait()
	w.ISend(0, 1, 9, tensor.FromSlice([]float32{2}, 1)).Wait()
	if got := h1.Wait(); got.Data[0] != 1 {
		t.Fatalf("first IRecv = %v, want 1", got.Data)
	}
	if got := h2.Wait(); got.Data[0] != 2 {
		t.Fatalf("second IRecv = %v, want 2", got.Data)
	}
}

func TestISendFullMailboxCompletesInBackground(t *testing.T) {
	w := NewWorld(2)
	for i := 0; i < mailboxDepth; i++ {
		w.Send(0, 1, 0, tensor.New(1))
	}
	h := w.ISend(0, 1, 0, tensor.FromSlice([]float32{42}, 1))
	if h.Done() {
		t.Fatal("ISend into a full mailbox reported done")
	}
	w.Recv(1, 0, 0) // free one slot; the background delivery proceeds
	if got := h.Wait(); got != nil {
		t.Fatalf("ISend Wait = %v, want nil", got)
	}
	if !h.Done() {
		t.Fatal("waited handle not done")
	}
}

func TestHandleDoubleWait(t *testing.T) {
	w := NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	g.Label = "tp"
	if err := w.RunSPMD(func(rank int) {
		h := g.IAllReduce(rank, tensor.FromSlice([]float32{float32(rank + 1)}, 1))
		a := h.Wait()
		b := h.Wait()
		if a != b {
			panic("double Wait returned distinct results")
		}
		if a.Data[0] != 3 {
			panic(fmt.Sprintf("allreduce = %v", a.Data))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHandleWaitAfterAbortPanics(t *testing.T) {
	w := NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	g.Label = "dp"
	h := g.IAllGather(0, tensor.New(1), tensor.New(2)) // peer never posts
	w.Abort(errors.New("injected failure"))
	defer func() {
		p := recover()
		ae, ok := p.(*AbortError)
		if !ok {
			t.Fatalf("Wait after abort panicked with %v, want *AbortError", p)
		}
		if ae.Rank != 0 || ae.Op != "dp.allgather" {
			t.Fatalf("AbortError = %+v", ae)
		}
	}()
	h.Wait()
}

func TestHandleWaitDeadline(t *testing.T) {
	w := NewWorld(2)
	w.Timeout = 50 * time.Millisecond
	g := w.NewGroup([]int{0, 1})
	g.Label = "dp"
	h := g.IAllGather(0, tensor.New(1), tensor.New(2)) // peer never posts
	defer func() {
		p := recover()
		ae, ok := p.(*AbortError)
		if !ok {
			t.Fatalf("Wait past deadline panicked with %v, want *AbortError", p)
		}
		var de *DeadlineError
		if !errors.As(ae, &de) {
			t.Fatalf("abort cause = %v, want *DeadlineError", ae.Err)
		}
	}()
	h.Wait()
}

// Race coverage: many concurrent outstanding handles per rank — collectives
// issued ahead and waited out of order, P2P ring traffic over handles — all
// under the race detector.
func TestConcurrentOutstandingHandlesRace(t *testing.T) {
	const n, depth = 4, 8
	w := NewWorld(n)
	g := w.NewGroup([]int{0, 1, 2, 3})
	g.Label = "dp"
	var sum atomic.Int64
	err := w.RunSPMD(func(rank int) {
		colls := make([]*Handle, 0, depth)
		for i := 0; i < depth; i++ {
			colls = append(colls, g.IAllReduce(rank, tensor.FromSlice([]float32{1}, 1)))
		}
		next := (rank + 1) % n
		prev := (rank + n - 1) % n
		recvs := make([]*Handle, 0, depth)
		for i := 0; i < depth; i++ {
			recvs = append(recvs, w.IRecv(rank, prev, 100+i))
		}
		sends := make([]*Handle, 0, depth)
		for i := 0; i < depth; i++ {
			sends = append(sends, w.ISend(rank, next, 100+i, tensor.FromSlice([]float32{float32(i)}, 1)))
		}
		// Wait in reverse issue order: completion must not depend on it.
		for i := depth - 1; i >= 0; i-- {
			if v := colls[i].Wait(); v.Data[0] != n {
				panic(fmt.Sprintf("allreduce %d = %v", i, v.Data))
			}
			if v := recvs[i].Wait(); v.Data[0] != float32(i) {
				panic(fmt.Sprintf("recv %d = %v", i, v.Data))
			}
			sends[i].Wait()
			sum.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("RunSPMD: %v", err)
	}
	if sum.Load() != n*depth {
		t.Fatalf("completed %d handle triples, want %d", sum.Load(), n*depth)
	}
}

// A rank that panics with outstanding handles must not strand its peers or
// leak the handles' background goroutines: the abort releases IRecv/ISend
// helpers, and peers' Waits panic with *AbortError.
func TestHandleLeakOnPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	g.Label = "dp"
	err := w.RunSPMD(func(rank int) {
		if rank == 0 {
			// Outstanding handles of every flavour, then die.
			w.IRecv(0, 1, 5) // never sent
			g.IAllGather(0, tensor.New(1), tensor.New(2))
			panic(errors.New("rank 0 dies"))
		}
		h := g.IAllGather(1, tensor.New(1), tensor.New(2))
		h.Wait() // must panic *AbortError, not hang
		panic("rank 1 Wait returned after peer death")
	})
	var rp *RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 0 {
		t.Fatalf("RunSPMD = %v, want *RankPanicError{Rank: 0}", err)
	}
	// The IRecv helper goroutine exits via the abort channel; give the
	// scheduler a moment and check nothing leaked.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// P2P byte accounting is per endpoint: the Meter sees a "send" issue on the
// sender and a "recv" issue on the receiver, each with the message's byte
// volume. So with every message delivered, recv == send == the bytes that
// arrived. Blocking and handle-based paths account identically.
func TestP2PByteAccountingConsistency(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "blocking"
		if async {
			name = "handles"
		}
		t.Run(name, func(t *testing.T) {
			w := NewWorld(2)
			m := newRecordingMeter()
			w.Meter = m
			const msgs = 5
			var want int64
			err := w.RunSPMD(func(rank int) {
				if rank == 0 {
					for i := 0; i < msgs; i++ {
						x := tensor.New(i + 1)
						if async {
							w.ISend(0, 1, i, x).Wait()
						} else {
							w.Send(0, 1, i, x)
						}
					}
					return
				}
				for i := 0; i < msgs; i++ {
					var got *tensor.Tensor
					if async {
						got = w.IRecv(1, 0, i).Wait()
					} else {
						got = w.Recv(1, 0, i)
					}
					atomic.AddInt64(&want, int64(got.Len())*4)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			per := m.total()
			send := per[OpKey{Group: "p2p", Op: "send"}]
			recv := per[OpKey{Group: "p2p", Op: "recv"}]
			if send.Bytes != want || send.Msgs != msgs {
				t.Errorf("send %+v, want %d bytes in %d issues", send, want, msgs)
			}
			if recv != send {
				t.Errorf("recv %+v != send %+v (endpoints must mirror)", recv, send)
			}
		})
	}
}
