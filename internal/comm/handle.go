package comm

import (
	"sync"
	"time"

	"llama4d/internal/tensor"
)

// OverlapRecorder extends Recorder for handle-based nonblocking operations:
// rank spent `total` seconds between issuing the op and completing it in
// Wait, of which only `exposed` seconds were spent blocked inside Wait — the
// remainder was hidden behind whatever the rank computed in between. This is
// the measured decomposition the paper's sustained-TFLOPs accounting needs:
// exposed comm stalls the critical path, overlapped comm does not (§7.3.1).
// `bytes` is the same closed-form volume the blocking op would account.
//
// A Recorder that does not implement OverlapRecorder receives
// RecordComm(rank, label, exposed) instead — only the stall is comm time.
type OverlapRecorder interface {
	Recorder
	RecordOverlap(rank int, group, op string, bytes int64, total, exposed float64)
}

// Handle is an in-flight nonblocking communication operation issued by
// IAllGather, IReduceScatter, IAllReduce, ISend, or IRecv. The operation
// makes progress without the issuer: collectives complete when the last
// member arrives (contributions are registered at issue time), P2P transfers
// complete when the mailbox accepts or yields the message.
//
// Wait blocks until the operation completes and returns its result (nil for
// sends); it is abort- and deadline-aware exactly like the blocking ops, and
// idempotent — a second Wait returns the cached result. Waiting on a handle
// of an aborted world panics with *AbortError even if the operation had
// already completed: an aborted world's results must not be consumed, since
// peers may have produced them from a half-failed step.
//
// Handles are not safe for concurrent Wait from multiple goroutines of the
// same rank in the presence of panics; the intended discipline is
// single-issuer single-waiter (the SPMD rank that issued it).
type Handle struct {
	w      *World
	rank   int
	label  string // group label, or "p2p"
	op     string // "allgather", "reducescatter", "allreduce", "send", "recv"
	bytes  int64  // closed-form volume; IRecv fills it in on delivery
	issued time.Time

	ready  chan struct{}         // closed when the op can complete without blocking
	finish func() *tensor.Tensor // completes the op; runs exactly once, after ready
	res0   *tensor.Tensor        // IRecv: delivered tensor, written before ready closes
	sent   bool                  // ISend: message accepted, written before ready closes

	mu     sync.Mutex
	waited bool
	res    *tensor.Tensor
}

// opName returns the qualified operation name used in errors and fault hooks.
func (h *Handle) opName() string { return h.label + "." + h.op }

// Done reports, without blocking, whether the operation has completed — for
// collectives, whether every member has arrived; for P2P, whether the
// message has been enqueued (send) or delivered (recv). A true Done means
// Wait will not block.
func (h *Handle) Done() bool {
	select {
	case <-h.ready:
		return true
	default:
		return false
	}
}

// Wait blocks until the operation completes and returns its result: the
// collective's output for IAllGather/IReduceScatter/IAllReduce, the received
// tensor for IRecv, nil for ISend. It panics with *AbortError if the world
// aborts (or already has), and arms the World.Timeout failure detector for
// the time spent blocked — exactly the semantics of the blocking ops.
func (h *Handle) Wait() *tensor.Tensor {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.waited {
		return h.res
	}
	if err := h.w.Err(); err != nil {
		panic(&AbortError{Rank: h.rank, Op: h.opName(), Err: err})
	}
	start := time.Now()
	h.w.await(h.rank, h.opName(), h.ready)
	res := h.finish()
	now := time.Now()
	h.record(now.Sub(h.issued).Seconds(), now.Sub(start).Seconds())
	h.waited, h.res = true, res
	return res
}

// record reports the issue-to-completion and blocked-in-Wait durations to
// the world's Recorder.
func (h *Handle) record(total, exposed float64) {
	r := h.w.Recorder
	if r == nil {
		return
	}
	if or, ok := r.(OverlapRecorder); ok {
		or.RecordOverlap(h.rank, h.label, h.op, h.bytes, total, exposed)
		return
	}
	r.RecordComm(h.rank, h.label, exposed)
}
