package cp

import (
	"fmt"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// RingLabel is the comm accounting label of the ring CP exchange: its
// traffic shows up as "cp.ring/send" and "cp.ring/recv" in the per-rank
// breakdown (and, because every transfer is handle-based, in the overlap
// split), separate from the pipeline's "p2p" and the collective "cp" lanes.
const RingLabel = "cp.ring"

// The ring tag layout: instance `slot` owns tags [ringTagBase +
// slot·ringTagStride, +ringTagStride), far above the small pipeline tags,
// and spends two of them (K, V) per (exchange, ring step).
const (
	ringTagBase   = 1 << 28
	ringTagStride = 1 << 20
	// maxRingSteps bounds the CP group size the tag layout supports.
	maxRingSteps = 256
	// maxRingCalls bounds the exchanges (layers × recompute replays) of one
	// instance; one more would spill into the next slot's namespace.
	maxRingCalls = ringTagStride / (2 * maxRingSteps)
)

// TagRangeError reports a ring exchange the tag layout cannot address
// without aliasing another instance's messages.
type TagRangeError struct {
	What     string
	Got, Max int
}

func (e *TagRangeError) Error() string {
	return fmt.Sprintf("cp: ring %s %d exceeds the tag layout's %d", e.What, e.Got, e.Max)
}

// CheckRingTags reports whether a ring over groupSize ranks issuing
// `exchanges` K/V exchanges per instance stays inside one tag namespace.
func CheckRingTags(groupSize, exchanges int) error {
	if groupSize > maxRingSteps {
		return &TagRangeError{What: "group size", Got: groupSize, Max: maxRingSteps}
	}
	if exchanges > maxRingCalls {
		return &TagRangeError{What: "exchange count", Got: exchanges, Max: maxRingCalls}
	}
	return nil
}

// KV is the CP K/V exchanger: it runs a per-document Plan over a Layout and
// implements model.KVComm and model.KVStreamer. All-gather documents move in
// one grouped collective per tensor; ring documents circulate as packed K/V
// blocks through pre-posted nonblocking handles, each hop's transfer hiding
// behind the previous block's streamed attention compute. Either way the
// result is "a full K and V tensor" in global position order, exactly as §4
// describes, so downstream attention is oblivious to the route.
//
// A plan without ring documents (the zero Plan included) is §4's exchange
// and nothing else: two all-gathers straight from the local chunks, no
// packing, and Streams reports false so the attention layer keeps its fused
// kernel. Classic overlap-hidden ring CP is the all-ring plan.
type KV struct {
	seq   int
	plan  Plan
	group *comm.Group
	rank  int     // global rank
	slot  int     // ring tag namespace (see NewKV)
	pos   [][]int // global positions per local rank, resolved once

	// Routing of a plan with ring documents (ring false: all nil).
	ring           bool
	ringIdx, agIdx []int            // this rank's local rows per route, ascending
	ringPos, agPos [][]int          // per owner: global positions per route
	ringRuns       [][]model.PosRun // per owner: contiguous runs of its packed ring block
	calls          int              // exchange counter: advances identically on every CP rank
}

// NewKV resolves the per-rank routing of plan over layout for one CP rank.
// slot selects the ring tag namespace: every CP rank of one microbatch sample
// derives the same slot from the schedule, so the namespaces agree without
// coordination and two samples in flight on one world can never collide.
func NewKV(layout Layout, plan Plan, group *comm.Group, globalRank, slot int) *KV {
	n := group.Size()
	kv := &KV{seq: layout.SeqLen(), plan: plan, group: group, rank: globalRank, slot: slot, pos: make([][]int, n)}
	for lr := range kv.pos {
		kv.pos[lr] = layout.LocalPositions(lr)
	}
	if kv.ring = plan.HasRing() && n > 1; !kv.ring {
		return kv
	}
	if err := CheckRingTags(n, 0); err != nil {
		panic(err)
	}
	kv.ringPos, kv.agPos = make([][]int, n), make([][]int, n)
	kv.ringRuns = make([][]model.PosRun, n)
	for lr, pos := range kv.pos {
		ringIdx, agIdx := plan.Split(pos)
		if lr == group.LocalRank(globalRank) {
			kv.ringIdx, kv.agIdx = ringIdx, agIdx
		}
		kv.ringPos[lr], kv.agPos[lr] = pickInts(pos, ringIdx), pickInts(pos, agIdx)
		kv.ringRuns[lr] = posRuns(kv.ringPos[lr])
	}
	return kv
}

// Env builds the model environment of this exchanger's rank: the
// full-sequence mask (each rank computes its own mask from the entire
// sequence, per §4 "CP ranks"), the rank's global positions, and the KV hook.
func (kv *KV) Env(mask attention.Mask) *model.Env {
	return &model.Env{Mask: mask, QPos: kv.pos[kv.group.LocalRank(kv.rank)], KV: kv}
}

// Env is the environment of §4's plain exchange: every document all-gathered.
func Env(layout Layout, mask attention.Mask, group *comm.Group, globalRank int) *model.Env {
	return NewKV(layout, Plan{}, group, globalRank, 0).Env(mask)
}

// posRuns decomposes ascending global positions into maximal contiguous
// runs; Off indexes the packed block the positions were copied into.
func posRuns(pos []int) []model.PosRun {
	var runs []model.PosRun
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		runs = append(runs, model.PosRun{Start: pos[i], Rows: j - i, Off: i})
		i = j
	}
	return runs
}

// tag derives the message tag of (exchange call, ring step, tensor) inside
// this instance's namespace. All CP ranks issue exchanges in the same layer
// order (SPMD), so call counters — and therefore tags — agree everywhere.
func (kv *KV) tag(call, step, which int) int {
	return ringTagBase + kv.slot*ringTagStride + (call*maxRingSteps+step)*2 + which
}

// gatherInto all-gathers local across the group and copies owner lr's rows
// to the global positions pos[lr] of full — reassembly by per-rank offsets,
// so unequal shards gather correctly.
func (kv *KV) gatherInto(full, local *tensor.Tensor, pos [][]int) {
	gathered := kv.group.AllGather(kv.rank, local)
	off := 0
	for _, owned := range pos {
		for _, p := range owned {
			copy(full.Row(p), gathered.Row(off))
			off++
		}
	}
	tensor.Put(gathered)
}

// SeqLen implements model.KVStreamer.
func (kv *KV) SeqLen() int { return kv.seq }

// Streams implements model.KVStreamer: blocks arrive over time exactly when
// the plan routes a document through the ring.
func (kv *KV) Streams() bool { return kv.ring }

// GatherKV implements model.KVComm: the same exchange, no streaming.
func (kv *KV) GatherKV(k, v *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return kv.StreamKV(k, v, nil)
}

// StreamKV implements model.KVStreamer. Ring receives for every step are
// pre-posted before anything else and each received block is relayed onward
// *before* its attention compute runs, so step t+1's transfer proceeds while
// every rank is busy with step t — the overlap schedule. The all-gather
// documents (if any) move in one grouped collective and are emitted as a
// single ready block. onBlock may be nil (plain gather).
func (kv *KV) StreamKV(k, v *tensor.Tensor, onBlock func(kBlk, vBlk *tensor.Tensor, runs []model.PosRun)) (*tensor.Tensor, *tensor.Tensor) {
	fullK := tensor.GetUninit(kv.seq, k.Cols())
	fullV := tensor.GetUninit(kv.seq, k.Cols())
	if !kv.ring {
		kv.gatherInto(fullK, k, kv.pos)
		kv.gatherInto(fullV, v, kv.pos)
		if onBlock != nil {
			onBlock(fullK, fullV, []model.PosRun{{Rows: kv.seq}})
		}
		return fullK, fullV
	}

	n := kv.group.Size()
	lr := kv.group.LocalRank(kv.rank)
	call := kv.calls
	kv.calls++
	if call >= maxRingCalls {
		panic(&TagRangeError{What: "exchange count", Got: call + 1, Max: maxRingCalls})
	}
	world := kv.group.World()
	next := kv.group.GlobalRank((lr + 1) % n)
	prev := kv.group.GlobalRank((lr - 1 + n) % n)
	recvK := make([]*comm.Handle, n-1)
	recvV := make([]*comm.Handle, n-1)
	for t := 0; t < n-1; t++ {
		recvK[t] = world.IRecvLabeled(kv.rank, prev, kv.tag(call, t, 0), RingLabel)
		recvV[t] = world.IRecvLabeled(kv.rank, prev, kv.tag(call, t, 1), RingLabel)
	}
	kRing := packRows(k, kv.ringIdx)
	vRing := packRows(v, kv.ringIdx)
	sendH := []*comm.Handle{
		world.ISendLabeled(kv.rank, next, kv.tag(call, 0, 0), kRing, RingLabel),
		world.ISendLabeled(kv.rank, next, kv.tag(call, 0, 1), vRing, RingLabel),
	}

	for i, p := range kv.pos[lr] {
		copy(fullK.Row(p), k.Row(i))
		copy(fullV.Row(p), v.Row(i))
	}
	if kv.plan.HasAllGather() {
		kAG := packRows(k, kv.agIdx)
		vAG := packRows(v, kv.agIdx)
		kv.gatherInto(fullK, kAG, kv.agPos)
		kv.gatherInto(fullV, vAG, kv.agPos)
		tensor.Put(kAG, vAG)
		if onBlock != nil {
			var runs []model.PosRun
			for d, isRing := range kv.plan.Ring {
				if !isRing {
					start := kv.plan.DocStarts[d]
					runs = append(runs, model.PosRun{Start: start, Rows: kv.plan.DocEnd(d) - start, Off: start})
				}
			}
			onBlock(fullK, fullV, runs)
		}
	}

	if onBlock != nil && len(kv.ringRuns[lr]) > 0 {
		onBlock(kRing, vRing, kv.ringRuns[lr])
	}
	for t := 0; t < n-1; t++ {
		kBlk := recvK[t].Wait()
		vBlk := recvV[t].Wait()
		if t < n-2 {
			sendH = append(sendH,
				world.ISendLabeled(kv.rank, next, kv.tag(call, t+1, 0), kBlk, RingLabel),
				world.ISendLabeled(kv.rank, next, kv.tag(call, t+1, 1), vBlk, RingLabel))
		}
		owner := (lr - t - 1 + n) % n
		for i, p := range kv.ringPos[owner] {
			copy(fullK.Row(p), kBlk.Row(i))
			copy(fullV.Row(p), vBlk.Row(i))
		}
		if onBlock != nil && len(kv.ringRuns[owner]) > 0 {
			onBlock(kBlk, vBlk, kv.ringRuns[owner])
		}
		tensor.Put(kBlk, vBlk)
	}
	tensor.Put(kRing, vRing)
	for _, h := range sendH {
		h.Wait()
	}
	return fullK, fullV
}

// ReduceKVGrad implements model.KVComm: the backward-pass reduction of the
// full-sequence K/V gradients back to local chunks. Implemented as a
// deterministic all-reduce followed by local selection (numerically
// identical to a permuted reduce-scatter; the cost model accounts for the
// reduce-scatter volume). Plans differ only in the forward exchange, so the
// cross-rank sum order — and therefore every dK/dV bit — never depends on
// the route.
func (kv *KV) ReduceKVGrad(dK, dV *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	rk := kv.group.AllReduce(kv.rank, dK)
	rv := kv.group.AllReduce(kv.rank, dV)
	pos := kv.pos[kv.group.LocalRank(kv.rank)]
	localDK, localDV := packRows(rk, pos), packRows(rv, pos)
	tensor.Put(rk, rv)
	return localDK, localDV
}
