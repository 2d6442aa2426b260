// Package comm provides the communication substrate of the functional layer:
// an in-process "cluster" whose ranks are goroutines and whose collectives
// and point-to-point transfers run over channels.
//
// The package mirrors the primitives the paper's training system uses on real
// hardware — all-gather, reduce-scatter, all-reduce, broadcast, and decoupled
// asynchronous P2P send/receive — with two properties the paper's debugging
// methodology (§6.2) depends on:
//
//   - Determinism: reductions always accumulate contributions in local-rank
//     order, so repeated runs are bitwise identical and accumulation order can
//     be emulated exactly by a sequential reference.
//   - Accounting: every collective and P2P issue reports its closed-form byte
//     volume to the world's Meter, feeding the bandwidth analyses of §7.2.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"llama4d/internal/tensor"
)

// Recorder observes communication timing: rank r spent dur (seconds,
// wall-clock) inside a collective of the labelled group. Because slow ranks
// arrive last and wait least, these durations carry exactly the signal the
// §6.1 top-down localisation reads from production traces.
type Recorder interface {
	RecordComm(rank int, label string, dur float64)
}

// Meter observes per-rank communication accounting: rank r issued one
// collective (or P2P) operation `op` on the group labelled `group`, moving
// `bytes` bytes — the closed-form volume of the op (ring algorithm volumes,
// §7.2), counted once per member rank that issues it. It is the world's only
// communication ledger (metrics.Registry implements it, lock-sharded per
// rank); the issue path itself takes no world-wide lock. Implementations must
// be safe for concurrent use by all ranks. Set it while no ranks are running.
type Meter interface {
	RecordOp(rank int, group, op string, bytes int64)
}

// FaultInjector intercepts every communication operation of the world —
// collectives as ranks enter them, P2P sends and receives — so injected
// faults land inside real communication, exactly where production failures
// surface. Implementations may sleep (a stall), mutate t in place (silent
// data corruption; t is nil for receives and barriers), or return a non-nil
// error, which kills the calling rank's goroutine (a crash: the rank panics
// inside the op and never contributes, so its peers block until failure
// detection fires). Must be safe for concurrent use by all ranks.
type FaultInjector interface {
	BeforeOp(rank int, op string, t *tensor.Tensor) error
}

// World is an in-process cluster of ranks numbered 0..Size()-1.
type World struct {
	size int

	// Topo, when set (HostSize > 0), gives the world a physical host
	// layout: groups created afterwards run their bulk collectives
	// hierarchically with tier-split accounting (see Topology). Set it
	// before creating groups — each group snapshots its layout.
	Topo Topology

	// Recorder, if non-nil, receives per-rank collective timings. Set it
	// before spawning ranks; implementations must be safe for concurrent
	// use.
	Recorder Recorder

	// Fault, if non-nil, intercepts every communication op (fault
	// injection). Set it while no ranks are running.
	Fault FaultInjector

	// Meter, if non-nil, receives per-rank, per-op communication
	// accounting. Set it while no ranks are running.
	Meter Meter

	// Timeout, if positive, bounds every blocking communication wait: a
	// rank stuck longer than this aborts the world with a *DeadlineError
	// — the failure detector that turns a dead or stalled peer into a
	// typed error on every surviving rank instead of a hang. Zero keeps
	// waits unbounded (the pre-fault-tolerance behaviour).
	Timeout time.Duration

	abortOnce sync.Once
	abort     chan struct{}
	abortErr  atomic.Pointer[abortCause]

	mu       sync.Mutex
	mail     map[p2pKey]chan *tensor.Tensor
	recvTail map[p2pKey]chan struct{} // FIFO chaining of outstanding IRecvs per key
}

type abortCause struct{ err error }

// AbortError is the panic payload delivered to ranks blocked in a
// collective or P2P operation when the world aborts: the surviving ranks of
// a failure observe it instead of waiting forever on a peer that will never
// arrive. World.RunSPMD recovers these and returns the abort cause.
type AbortError struct {
	Rank int    // rank that observed the abort
	Op   string // operation it was blocked in
	Err  error  // the abort cause (e.g. *RankPanicError, *DeadlineError)
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("comm: rank %d aborted in %s: %v", e.Rank, e.Op, e.Err)
}

func (e *AbortError) Unwrap() error { return e.Err }

// RankPanicError is the abort cause when a rank's goroutine dies (an
// injected crash or a genuine bug): the root-cause rank is attributed, which
// downstream fault handling (internal/ft) surfaces as a RankFailure.
type RankPanicError struct {
	Rank  int
	Cause error
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("comm: rank %d died: %v", e.Rank, e.Cause)
}

func (e *RankPanicError) Unwrap() error { return e.Cause }

// DeadlineError is the abort cause when the failure detector fires: a rank
// waited longer than World.Timeout inside an op. The rank recorded is the
// *observer* — with a stalled (not crashed) peer no rank ever dies, so the
// detector cannot attribute the root cause, only the symptom.
type DeadlineError struct {
	Rank    int
	Op      string
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: rank %d exceeded the %v failure-detection deadline in %s (dead or stalled peer)", e.Rank, e.Timeout, e.Op)
}

// Abort marks the world as failed with the given cause and releases every
// rank blocked in a collective or P2P wait (they panic with *AbortError).
// The first cause wins; later calls are no-ops. An aborted world is dead for
// good — recovery rebuilds a fresh world (internal/ft's controller).
func (w *World) Abort(err error) {
	w.abortOnce.Do(func() {
		w.abortErr.Store(&abortCause{err: err})
		close(w.abort)
		// Reset the mailboxes: tensors still in flight belong to the failed
		// step, and a retry that reused this world must never receive them
		// (the stale-mailbox hazard — a resumed step would consume a
		// half-step-old activation and silently diverge from the bitwise
		// resume contract). Blocked senders hold references to the orphaned
		// channels and are released by the abort select arm; receives on an
		// aborted world panic before ever touching the fresh map.
		w.mu.Lock()
		w.mail = make(map[p2pKey]chan *tensor.Tensor)
		w.recvTail = make(map[p2pKey]chan struct{})
		w.mu.Unlock()
	})
}

// Err returns the abort cause, or nil while the world is healthy.
func (w *World) Err() error {
	if c := w.abortErr.Load(); c != nil {
		return c.err
	}
	return nil
}

// Done returns a channel closed when the world aborts — fault injectors use
// it to make stalls interruptible.
func (w *World) Done() <-chan struct{} { return w.abort }

// beforeOp runs the fault hook for one op; an injected crash panics the
// calling rank with the fault error (so the crash happens *inside* the op).
func (w *World) beforeOp(rank int, op string, t *tensor.Tensor) {
	if w.Fault == nil {
		return
	}
	if err := w.Fault.BeforeOp(rank, op, t); err != nil {
		panic(err)
	}
}

// account reports one per-rank operation to the Meter hook, if any.
func (w *World) account(rank int, group, op string, bytes int64) {
	if w.Meter != nil {
		w.Meter.RecordOp(rank, group, op, bytes)
	}
}

// await blocks until ready is closed, the world aborts, or the failure
// detector's deadline expires (aborting the world). It panics with
// *AbortError in the two failure cases.
func (w *World) await(rank int, op string, ready <-chan struct{}) {
	var deadline <-chan time.Time
	if w.Timeout > 0 {
		tm := time.NewTimer(w.Timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	select {
	case <-ready:
	case <-w.abort:
		panic(&AbortError{Rank: rank, Op: op, Err: w.Err()})
	case <-deadline:
		w.Abort(&DeadlineError{Rank: rank, Op: op, Timeout: w.Timeout})
		panic(&AbortError{Rank: rank, Op: op, Err: w.Err()})
	}
}

type p2pKey struct {
	from, to, tag int
}

// OpKey identifies one (parallelism dimension, collective op) pair in a
// Meter's communication breakdown — e.g. {"tp", "allreduce"} or
// {"p2p", "send"}.
type OpKey struct {
	Group string // group label: "tp", "cp", "pp", "dp", "world", "p2p", ...
	Op    string // collective op: "allgather", "allreduce", "send", ...
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: world size %d", size))
	}
	return &World{
		size:     size,
		mail:     make(map[p2pKey]chan *tensor.Tensor),
		recvTail: make(map[p2pKey]chan struct{}),
		abort:    make(chan struct{}),
	}
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

const mailboxDepth = 256 // decoupled async P2P: sends do not block on the receiver

func (w *World) mailbox(k p2pKey) chan *tensor.Tensor {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.mail[k]
	if !ok {
		ch = make(chan *tensor.Tensor, mailboxDepth)
		w.mail[k] = ch
	}
	return ch
}

// Send delivers a copy of t from rank `from` to rank `to` under `tag`.
// Sends are asynchronous up to the mailbox depth, modelling the decoupled
// P2P send/receive the paper relies on for pipeline parallelism (§5.2). A
// send blocked on a full mailbox (a stalled receiver) is bounded by the
// same failure-detection deadline as Recv: it aborts the world with a
// *DeadlineError instead of hanging until some other rank notices.
func (w *World) Send(from, to, tag int, t *tensor.Tensor) {
	w.SendLabeled(from, to, tag, t, "p2p")
}

// SendLabeled is Send with an explicit accounting label: the transfer is
// metered under (label, "send") instead of ("p2p", "send"), so subsystems
// with their own traffic class — the ring CP exchange uses "cp.ring" — stay
// separable in the per-rank comm breakdown. Delivery semantics are identical
// to Send; labels never affect matching (only (from, to, tag) does).
func (w *World) SendLabeled(from, to, tag int, t *tensor.Tensor, label string) {
	w.checkRank(from)
	w.checkRank(to)
	msg := t.Clone()
	w.beforeOp(from, label+".send", msg)
	w.account(from, label, "send", int64(t.Len())*4)
	var deadline <-chan time.Time
	if w.Timeout > 0 {
		tm := time.NewTimer(w.Timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	select {
	case w.mailbox(p2pKey{from, to, tag}) <- msg:
	case <-w.abort:
		panic(&AbortError{Rank: from, Op: label + ".send", Err: w.Err()})
	case <-deadline:
		w.Abort(&DeadlineError{Rank: from, Op: label + ".send", Timeout: w.Timeout})
		panic(&AbortError{Rank: from, Op: label + ".send", Err: w.Err()})
	}
}

// ISend is the nonblocking Send: the message is cloned, fault-injected, and
// accounted at issue; if the mailbox is full the delivery retries in the
// background. Wait returns nil once the message is enqueued — like Send, it
// never waits for the receiver. Waiting is optional; an unwaited handle
// still delivers (or is released by an abort).
func (w *World) ISend(from, to, tag int, t *tensor.Tensor) *Handle {
	return w.ISendLabeled(from, to, tag, t, "p2p")
}

// ISendLabeled is ISend metered under (label, "send") — see SendLabeled.
func (w *World) ISendLabeled(from, to, tag int, t *tensor.Tensor, label string) *Handle {
	w.checkRank(from)
	w.checkRank(to)
	msg := t.Clone()
	w.beforeOp(from, label+".send", msg)
	bytes := int64(t.Len()) * 4
	w.account(from, label, "send", bytes)
	h := &Handle{
		w:      w,
		rank:   from,
		label:  label,
		op:     "send",
		bytes:  bytes,
		issued: time.Now(),
		ready:  make(chan struct{}),
	}
	h.finish = func() *tensor.Tensor {
		if !h.sent {
			panic(&AbortError{Rank: from, Op: label + ".send", Err: w.Err()})
		}
		return nil
	}
	ch := w.mailbox(p2pKey{from, to, tag})
	select {
	case ch <- msg:
		h.sent = true
		close(h.ready)
		return h
	default:
	}
	go func() {
		select {
		case ch <- msg:
			h.sent = true
		case <-w.abort:
		}
		close(h.ready)
	}()
	return h
}

// IRecv is the nonblocking Recv: it immediately claims the next message
// tagged `tag` from rank `from`, receiving it in the background as soon as
// it arrives; Wait blocks for delivery under the usual abort/deadline rules.
// Multiple outstanding IRecvs on one (from, to, tag) key are delivered in
// issue order (FIFO chaining). Blocking Recv must not be mixed with
// outstanding IRecvs on the same key — it would race the chain for the
// message.
func (w *World) IRecv(to, from, tag int) *Handle {
	return w.IRecvLabeled(to, from, tag, "p2p")
}

// IRecvLabeled is IRecv metered under (label, "recv") — see SendLabeled.
func (w *World) IRecvLabeled(to, from, tag int, label string) *Handle {
	w.checkRank(from)
	w.checkRank(to)
	w.beforeOp(to, label+".recv", nil)
	ch := w.mailbox(p2pKey{from, to, tag})
	w.mu.Lock()
	prev := w.recvTail[p2pKey{from, to, tag}]
	got := make(chan struct{})
	w.recvTail[p2pKey{from, to, tag}] = got
	w.mu.Unlock()
	h := &Handle{
		w:      w,
		rank:   to,
		label:  label,
		op:     "recv",
		issued: time.Now(),
		ready:  make(chan struct{}),
	}
	h.finish = func() *tensor.Tensor {
		if h.res0 == nil {
			panic(&AbortError{Rank: to, Op: label + ".recv", Err: w.Err()})
		}
		return h.res0
	}
	go func() {
		defer close(h.ready)
		if prev != nil {
			select {
			case <-prev: // predecessor got its message; our turn
			case <-w.abort:
				return
			}
		}
		select {
		case t := <-ch:
			h.res0 = t
			h.bytes = int64(t.Len()) * 4
			w.account(to, label, "recv", h.bytes)
			close(got)
		case <-w.abort:
		}
	}()
	return h
}

// Recv blocks until a tensor tagged `tag` from rank `from` arrives at `to`,
// the world aborts, or the failure-detection deadline expires.
func (w *World) Recv(to, from, tag int) *tensor.Tensor {
	return w.RecvLabeled(to, from, tag, "p2p")
}

// RecvLabeled is Recv metered under (label, "recv") — see SendLabeled.
func (w *World) RecvLabeled(to, from, tag int, label string) *tensor.Tensor {
	w.checkRank(from)
	w.checkRank(to)
	w.beforeOp(to, label+".recv", nil)
	ch := w.mailbox(p2pKey{from, to, tag})
	var deadline <-chan time.Time
	if w.Timeout > 0 {
		tm := time.NewTimer(w.Timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	select {
	case t := <-ch:
		w.account(to, label, "recv", int64(t.Len())*4)
		return t
	case <-w.abort:
		panic(&AbortError{Rank: to, Op: label + ".recv", Err: w.Err()})
	case <-deadline:
		w.Abort(&DeadlineError{Rank: to, Op: label + ".recv", Timeout: w.Timeout})
		panic(&AbortError{Rank: to, Op: label + ".recv", Err: w.Err()})
	}
}

func (w *World) checkRank(r int) {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("comm: rank %d outside world of size %d", r, w.size))
	}
}

// RunSPMD runs body once per rank, each on its own goroutine, waits for all
// of them, and returns the failure (nil on success). A panicking rank aborts
// the world, releasing peers blocked on its collectives or P2P transfers, so
// a dead or stalled rank surfaces as a typed error instead of hanging the
// caller: *RankPanicError when a rank's goroutine died, *DeadlineError when
// the Timeout failure detector fired first. An already-aborted world refuses
// to run and returns its standing error.
func (w *World) RunSPMD(body func(rank int)) error {
	if err := w.Err(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				panics[rank] = p
				if _, induced := p.(*AbortError); induced {
					// Collateral of an abort elsewhere, not a root cause.
					return
				}
				cause, ok := p.(error)
				if !ok {
					cause = fmt.Errorf("%v", p)
				}
				w.Abort(&RankPanicError{Rank: rank, Cause: cause})
			}()
			body(rank)
		}(r)
	}
	wg.Wait()
	if err := w.Err(); err != nil {
		return err
	}
	for r, p := range panics {
		if p != nil {
			return fmt.Errorf("comm: rank %d panicked: %v", r, p)
		}
	}
	return nil
}
