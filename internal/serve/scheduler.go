package serve

import (
	"fmt"
	"sort"
	"time"
)

// Request is one user request: a prompt, a generation budget, and the
// scheduler tick at which it arrives.
type Request struct {
	ID      int
	Prompt  []int
	MaxNew  int // tokens to generate (>= 1; the prefill emits the first)
	Arrival int // scheduler tick of arrival
}

// SeqState is one admitted request's in-flight state: the generated tokens,
// the paged-cache sequence, and the latency timeline the load generator
// folds into the report. Under tensor parallelism every rank's scheduler
// holds its own replica, evolving identically (all decisions are functions
// of ticks and page counts, never wall time).
type SeqState struct {
	Req    *Request
	Output []int // generated tokens (grows by one per prefill/decode)
	Cache  *Seq

	Submitted   time.Time
	FirstToken  time.Time   // set when the first token is emitted (TTFT)
	TokenTimes  []time.Time // emission time of every generated token
	Preemptions int
	Done        bool
}

// feedTokens returns the tokens a (re-)prefill must process: the prompt
// plus everything generated before preemption. Re-running them through the
// row-independent forward reproduces the evicted KV bit for bit, which is
// why preemption cannot perturb the decode-bitwise contract.
func (s *SeqState) feedTokens() []int {
	feed := make([]int, 0, len(s.Req.Prompt)+len(s.Output))
	feed = append(feed, s.Req.Prompt...)
	return append(feed, s.Output...)
}

// Runner is the engine surface the scheduler drives — the real Engine in
// production, a stub in the scheduler fuzz target.
type Runner interface {
	// Prefill processes each sequence's feedTokens, writes their KV, and
	// appends one generated token per sequence.
	Prefill(seqs []*SeqState)
	// DecodeStep feeds each sequence's last token and appends the next.
	DecodeStep(seqs []*SeqState)
}

// Scheduler is the continuous-batching loop: requests stream in at their
// arrival ticks, join the running batch as soon as pages allow, and leave
// on completion — no all-or-nothing static batch. Decode capacity is
// reserved page-by-page; when the pool runs dry the youngest running
// sequence is preempted (pages freed, tokens kept, re-queued at the front)
// rather than stalling everyone — the eviction policy of DESIGN.md §4f.
type Scheduler struct {
	KV       *KVCache
	Run      Runner
	MaxBatch int

	clock   int
	pending []*Request  // submitted, not yet arrived (sorted by Arrival, ID)
	waiting []*SeqState // arrived or preempted, awaiting admission
	running []*SeqState
	done    []*SeqState

	// PeakConcurrent is the high-water mark of the running batch;
	// Preemptions counts evictions. Steps counts engine iterations.
	PeakConcurrent int
	Preemptions    int
	Steps          int
}

// NewScheduler creates a scheduler over a cache and runner with the given
// maximum decode batch size.
func NewScheduler(kv *KVCache, run Runner, maxBatch int) *Scheduler {
	if maxBatch < 1 {
		panic("serve: MaxBatch must be >= 1")
	}
	return &Scheduler{KV: kv, Run: run, MaxBatch: maxBatch}
}

// Submit queues requests. A request that could never hold its full
// prompt+output working set alone is rejected up front — the guarantee that
// preemption always converges (any single admitted request fits the pool).
func (s *Scheduler) Submit(reqs ...*Request) error {
	for _, r := range reqs {
		if len(r.Prompt) == 0 || r.MaxNew < 1 {
			return fmt.Errorf("serve: request %d needs a prompt and MaxNew >= 1", r.ID)
		}
		need := s.KV.PagesForTokens(len(r.Prompt) + r.MaxNew)
		if need > s.KV.Alloc.Budget() {
			return fmt.Errorf("serve: request %d needs %d pages, budget is %d", r.ID, need, s.KV.Alloc.Budget())
		}
		s.pending = append(s.pending, r)
	}
	sort.SliceStable(s.pending, func(i, j int) bool {
		if s.pending[i].Arrival != s.pending[j].Arrival {
			return s.pending[i].Arrival < s.pending[j].Arrival
		}
		return s.pending[i].ID < s.pending[j].ID
	})
	return nil
}

// Idle reports whether every submitted request has completed.
func (s *Scheduler) Idle() bool {
	return len(s.pending) == 0 && len(s.waiting) == 0 && len(s.running) == 0
}

// Completed returns the finished sequences in completion order.
func (s *Scheduler) Completed() []*SeqState { return s.done }

// Clock returns the current scheduler tick.
func (s *Scheduler) Clock() int { return s.clock }

// preempt evicts the youngest running sequence: its pages drain back to
// the allocator, its generated tokens survive, and it re-queues at the
// front of the waiting line for deterministic re-prefill.
func (s *Scheduler) preempt() *SeqState {
	victim := s.running[len(s.running)-1]
	s.running = s.running[:len(s.running)-1]
	s.KV.Release(victim.Cache)
	victim.Cache = nil
	victim.Preemptions++
	s.Preemptions++
	s.waiting = append([]*SeqState{victim}, s.waiting...)
	return victim
}

// Step runs one engine iteration: arrivals tick in, the running batch
// reserves a token each and decodes (preempting on page exhaustion),
// and freed/remaining capacity admits waiting sequences for a packed
// prefill. Returns false once everything submitted has completed.
func (s *Scheduler) Step() bool {
	if s.Idle() {
		return false
	}
	s.Steps++

	// 1. Arrivals.
	for len(s.pending) > 0 && s.pending[0].Arrival <= s.clock {
		r := s.pending[0]
		s.pending = s.pending[1:]
		s.waiting = append(s.waiting, &SeqState{Req: r, Submitted: time.Now()})
	}

	// 2. Decode the running batch, reserving one token per sequence first.
	// Reservation failure preempts the youngest running sequence and
	// retries; Submit's admission bound guarantees convergence.
	decode := s.running
	for i := 0; i < len(decode); i++ {
		seq := decode[i]
		for !s.KV.Reserve(seq.Cache, 1) {
			victim := s.preempt()
			decode = s.running // preempt shrank it
			if victim == seq {
				i-- // the victim was the sequence being reserved for
				break
			}
		}
	}
	if len(decode) > 0 {
		s.Run.DecodeStep(decode)
		now := time.Now()
		for _, seq := range decode {
			seq.TokenTimes = append(seq.TokenTimes, now)
		}
		s.completeFinished()
	}

	// 3. Admit from the waiting line head while batch slots and pages
	// last, then prefill the admissions as one packed ragged batch.
	var admitted []*SeqState
	for len(s.waiting) > 0 && len(s.running) < s.MaxBatch {
		seq := s.waiting[0]
		cache := s.KV.NewSeq()
		if !s.KV.Reserve(cache, len(seq.Req.Prompt)+len(seq.Output)) {
			break
		}
		seq.Cache = cache
		s.waiting = s.waiting[1:]
		s.running = append(s.running, seq)
		admitted = append(admitted, seq)
	}
	if len(s.running) > s.PeakConcurrent {
		s.PeakConcurrent = len(s.running)
	}
	if len(admitted) > 0 {
		s.Run.Prefill(admitted)
		now := time.Now()
		for _, seq := range admitted {
			if seq.FirstToken.IsZero() {
				seq.FirstToken = now
			}
			seq.TokenTimes = append(seq.TokenTimes, now)
		}
		s.completeFinished()
	}

	s.clock++
	return !s.Idle()
}

// completeFinished retires sequences that reached their generation budget.
func (s *Scheduler) completeFinished() {
	keep := s.running[:0]
	for _, seq := range s.running {
		if len(seq.Output) >= seq.Req.MaxNew {
			seq.Done = true
			s.KV.Release(seq.Cache)
			seq.Cache = nil
			s.done = append(s.done, seq)
			continue
		}
		keep = append(keep, seq)
	}
	s.running = keep
}

// LivelockError is RunToCompletion's report that the scheduler stopped
// making progress: Steps steps, the bound it allows, left requests unfinished.
type LivelockError struct{ Steps int }

func (e *LivelockError) Error() string {
	return fmt.Sprintf("serve: scheduler made no progress after %d steps", e.Steps)
}

// RunToCompletion drives Step until every submitted request completes. It
// returns a *LivelockError after a generous bound on the steps instead of
// hanging.
func (s *Scheduler) RunToCompletion() error {
	var total int
	for _, r := range s.pending {
		total += r.MaxNew + r.Arrival + len(r.Prompt)
	}
	bound := 16 * (total + 16) // every step emits >= 1 token or admits, absent livelock
	for steps := 0; s.Step(); steps++ {
		if steps > bound {
			return &LivelockError{Steps: bound}
		}
	}
	return nil
}
