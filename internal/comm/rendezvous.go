package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"llama4d/internal/tensor"
)

// collTag attributes the collectives' staging-buffer arena traffic in the
// default tensor pool, so a Gets−Puts imbalance reads directly as a staging
// leak (the regression the per-tag pool stats test pins).
const collTag = "coll"

// rvShards is the number of slot-map shards per rendezvous. Sharding by
// sequence number keeps concurrent in-flight collectives (pipelined handles,
// different hosts' escalations) off one mutex; within one collective the
// shard lock is only taken for slot get-or-create and retirement, never for
// contribution deposit or arrival counting (both lock-free atomics).
const rvShards = 16

// rendezvous is a sharded slot table: the meeting point where one set of
// participants (a flat group, one host's members, or the hosts' carriers)
// matches up per op-sequence number. It replaces the old single
// mutex-guarded map + per-rank counter block whose lock every rank of every
// op serialized on — O(world) lock handoffs per collective.
type rendezvous struct {
	shards [rvShards]rvShard
}

type rvShard struct {
	mu    sync.Mutex
	slots map[int]*collSlot
	_     [24]byte // keep neighbouring shards off one cache line
}

// collSlot is one collective-in-progress: contributions, results, and the
// arrival/retirement counters, indexed by participant slot. Staged
// contributions are pool-backed copies released the moment the combine has
// consumed them — the slot never holds staging past the combine. A result
// entry filed at deposit is the participant's caller-owned destination,
// which the combine writes in place.
type collSlot struct {
	seq      int
	op       string
	want     int32 // arrivals that complete, and readers that retire, the slot
	contribs []*tensor.Tensor
	staged   []*tensor.Tensor // pool-owned copies among contribs (nil = passthrough)
	result   []*tensor.Tensor // per-participant destinations or results (views into shared data allowed)
	arrived  atomic.Int32
	readers  atomic.Int32
	done     chan struct{}
}

// claim returns the slot for seq, creating it (with `arrive` expected
// participants and `size` contribution/result entries) on first touch. The
// op must match the slot's — a mismatch is an SPMD ordering bug and panics.
func (rv *rendezvous) claim(seq int, op string, arrive, size int) *collSlot {
	sh := &rv.shards[seq%rvShards]
	sh.mu.Lock()
	if sh.slots == nil {
		sh.slots = make(map[int]*collSlot)
	}
	slot, ok := sh.slots[seq]
	if !ok {
		slot = &collSlot{
			seq:      seq,
			op:       op,
			want:     int32(arrive),
			contribs: make([]*tensor.Tensor, size),
			staged:   make([]*tensor.Tensor, size),
			result:   make([]*tensor.Tensor, size),
			done:     make(chan struct{}),
		}
		sh.slots[seq] = slot
	}
	sh.mu.Unlock()
	if slot.op != op {
		panic(fmt.Sprintf("comm: collective mismatch at seq %d: caller posted %s, slot is running %s",
			seq, op, slot.op))
	}
	return slot
}

// retire counts one participant done reading; the last one deletes the slot.
func (rv *rendezvous) retire(slot *collSlot) {
	if slot.readers.Add(1) == slot.want {
		sh := &rv.shards[slot.seq%rvShards]
		sh.mu.Lock()
		delete(sh.slots, slot.seq)
		sh.mu.Unlock()
	}
}

// deposit files participant i's contribution and destination (nil for the
// ops and forms that return a fresh result). With stage set, the
// contribution is copied into an arena-backed staging buffer ("coll" tag)
// so the collective owns its input: the caller may mutate or pool its tensor
// the moment the op call returns, and the combine's consumed inputs go
// straight back to the arena instead of pinning caller memory in the slot
// until retirement. Unstaged contributions are read in place by the combine.
// Nil and zero-length contributions are never staged (the pool skips empty
// tensors on Put, so staging them would unbalance the tag's Gets/Puts
// ledger).
func (s *collSlot) deposit(i int, contrib, dst *tensor.Tensor, stage bool) {
	s.result[i] = dst
	if !stage || contrib == nil || contrib.Len() == 0 {
		s.contribs[i] = contrib
		return
	}
	c := tensor.GetUninitTag(collTag, contrib.Shape...)
	copy(c.Data, contrib.Data)
	s.contribs[i], s.staged[i] = c, c
}

// releaseStaged returns every staged contribution to the arena. Called by
// the combining participant immediately after combine returns; combines must
// therefore never alias a contribution into a result (they copy or
// accumulate into a destination, or clone).
func (s *collSlot) releaseStaged() {
	for i, st := range s.staged {
		if st != nil {
			s.staged[i] = nil
			s.contribs[i] = nil
			tensor.PutTag(collTag, st)
		}
	}
}

// rankSeq is one local rank's op-sequence counters, owned exclusively by
// that rank's goroutine (the SPMD contract: one goroutine per rank, and
// successive RunSPMD generations are ordered by the WaitGroup). The flat and
// hierarchical transports rendezvous in disjoint slot spaces, so each keeps
// its own counter. Padded so neighbouring ranks' counters never share a
// cache line.
type rankSeq struct {
	flat int
	hier int
	_    [48]byte
}
