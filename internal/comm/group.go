package comm

import (
	"fmt"
	"time"

	"llama4d/internal/tensor"
)

// Group is a process group: an ordered subset of world ranks that perform
// collectives together. All member ranks must call the same sequence of
// collectives in the same order (SPMD), exactly as NCCL process groups
// require.
type Group struct {
	world *World
	ranks []int       // global ranks, position = local rank
	local map[int]int // global rank -> local rank

	// Label names the parallelism dimension this group implements ("tp",
	// "cp", "pp", "dp"); recorded timings are attributed to it.
	Label string

	rv   *rendezvous // flat (single-level) slot space
	seq  []rankSeq   // per-local-rank op counters, owned by each rank's goroutine
	hier *hierState  // two-level transport; nil without a tiered host layout
}

// NewGroup creates a process group over the given global ranks. Rank order
// defines local rank order and therefore the deterministic reduction order.
// If the world carries a Topology whose host layout is tiered for these
// ranks, the group's bulk collectives run hierarchically (see Topology).
func (w *World) NewGroup(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("comm: empty group")
	}
	g := &Group{
		world: w,
		ranks: append([]int(nil), ranks...),
		local: make(map[int]int, len(ranks)),
		rv:    &rendezvous{},
		seq:   make([]rankSeq, len(ranks)),
	}
	for i, r := range ranks {
		w.checkRank(r)
		if _, dup := g.local[r]; dup {
			panic(fmt.Sprintf("comm: duplicate rank %d in group", r))
		}
		g.local[r] = i
	}
	if w.Topo.HostSize > 0 {
		if l := LayoutOf(g.ranks, w.Topo.HostSize); l.Tiered() {
			g.hier = newHierState(l)
		}
	}
	return g
}

// World returns the world the group's ranks live in — the point-to-point
// transport next to the group's collectives.
func (g *Group) World() *World { return g.world }

// Size returns the number of ranks in the group.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the global ranks of the group in local-rank order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// LocalRank translates a global rank into the group's local rank.
func (g *Group) LocalRank(globalRank int) int {
	lr, ok := g.local[globalRank]
	if !ok {
		panic(fmt.Sprintf("comm: rank %d not in group %v", globalRank, g.ranks))
	}
	return lr
}

// GlobalRank translates a local rank into a global rank.
func (g *Group) GlobalRank(localRank int) int { return g.ranks[localRank] }

// Contains reports whether the global rank is a member of the group. Only
// the conformance suites ask (hier == flat, the collective fuzz): library
// ranks are handed exactly their groups.
func (g *Group) Contains(globalRank int) bool {
	_, ok := g.local[globalRank]
	return ok
}

// post registers the caller's contribution under its next op sequence
// number without blocking: the caller claims its sequence slot, deposits its
// contribution, and — if it is the last arriver — runs combine and releases
// the peers. It returns the slot, the caller's local rank, and whether the
// caller completed the collective. Claiming the sequence number in the
// issuing goroutine (never a helper) is what keeps nonblocking collectives
// ordered identically to blocking ones: a rank's issue order IS its
// collective order.
//
// Fault injection happens here, before the contribution registers: a
// crashing rank never arrives, so its peers block — exactly the production
// failure mode the world's detection machinery must catch.
//
// The contribution is staged into an arena-backed copy at deposit (so the
// caller keeps ownership of its tensor) and released back to the pool the
// moment the last arriver's combine has consumed it — the slot never pins
// contributions until retirement.
func (g *Group) post(globalRank int, op string, contrib *tensor.Tensor, combine func(contribs []*tensor.Tensor, results []*tensor.Tensor)) (slot *collSlot, lr int, last bool) {
	lr = g.LocalRank(globalRank)
	g.world.beforeOp(globalRank, g.Label+"."+op, contrib)

	seq := g.seq[lr].flat
	g.seq[lr].flat++
	n := len(g.ranks)
	slot = g.rv.claim(seq, op, n, n)
	st, pooled := stageContrib(contrib)
	slot.contribs[lr] = st
	if pooled {
		slot.staged[lr] = st
	}
	if last = int(slot.arrived.Add(1)) == n; last {
		combine(slot.contribs, slot.result)
		slot.releaseStaged()
		close(slot.done)
	}
	return slot, lr, last
}

// finishSlot reads the caller's result out of a completed slot and retires
// the slot once every member has read. slot.done must be closed.
func (g *Group) finishSlot(slot *collSlot, lr int) *tensor.Tensor {
	res := slot.result[lr]
	g.rv.retire(slot)
	return res
}

// enter registers the caller's contribution under its next op sequence
// number, blocks until all members have arrived, and returns the caller's
// result. combine runs exactly once, on the last arriver, with contributions
// ordered by local rank; it must fill slot.result with one entry per member.
func (g *Group) enter(globalRank int, op string, contrib *tensor.Tensor, combine func(contribs []*tensor.Tensor, results []*tensor.Tensor)) *tensor.Tensor {
	if g.world.Recorder != nil {
		start := time.Now()
		defer func() {
			g.world.Recorder.RecordComm(globalRank, g.Label, time.Since(start).Seconds())
		}()
	}
	slot, lr, last := g.post(globalRank, op, contrib, combine)
	if !last {
		g.world.await(globalRank, g.Label+"."+op, slot.done)
	}
	return g.finishSlot(slot, lr)
}

// iColl issues a nonblocking collective: the contribution registers now (so
// peers can proceed and the combine runs as soon as the last member posts),
// and the returned handle clones the caller's result out of the shared slot
// in Wait. The op string matches the blocking variant, so blocking and
// nonblocking callers interoperate within one collective on flat groups.
// Nonblocking collectives always take the flat transport — overlap-engine
// traffic is latency-hidden by design, so the hierarchy would buy nothing —
// which means a group with a tiered host layout must not mix blocking and
// nonblocking members within one collective (they would rendezvous in
// different slot spaces).
func (g *Group) iColl(globalRank int, op string, bytes int64, contrib *tensor.Tensor, combine func(contribs []*tensor.Tensor, results []*tensor.Tensor)) *Handle {
	slot, lr, _ := g.post(globalRank, op, contrib, combine)
	h := &Handle{
		w:      g.world,
		rank:   globalRank,
		label:  g.Label,
		op:     op,
		bytes:  bytes,
		issued: time.Now(),
		ready:  slot.done,
	}
	h.finish = func() *tensor.Tensor { return g.finishSlot(slot, lr).Clone() }
	return h
}

// combineConcatRows is AllGather's combine: one shared row concatenation in
// local-rank order, handed to every member.
func combineConcatRows(contribs, results []*tensor.Tensor) {
	full := tensor.ConcatRows(contribs...)
	for i := range results {
		results[i] = full
	}
}

// combineSum is AllReduce's combine: element-wise sum accumulated in
// local-rank order (the determinism contract), handed to every member.
func combineSum(contribs, results []*tensor.Tensor) {
	sum := contribs[0].Clone()
	for _, c := range contribs[1:] {
		sum.Add(c)
	}
	for i := range results {
		results[i] = sum
	}
}

// combineReduceScatter is ReduceScatter's combine for a group of n: the
// local-rank-order sum, split into n row chunks, chunk i to member i.
func combineReduceScatter(n int) func(contribs, results []*tensor.Tensor) {
	return func(contribs, results []*tensor.Tensor) {
		sum := contribs[0].Clone()
		for _, c := range contribs[1:] {
			sum.Add(c)
		}
		chunks := tensor.SplitRows(sum, n)
		for i := range results {
			results[i] = chunks[i]
		}
	}
}

// account reports one per-rank collective issue (the closed-form byte
// volume of the op) to the world's Meter.
func (g *Group) account(globalRank int, op string, bytes int64) {
	g.world.account(globalRank, g.Label, op, bytes)
}

// The closed-form per-rank issue volumes of the ring algorithms (§5.2) for a
// contribution x in a group of n: an all-gather moves every other member's
// contribution, a reduce-scatter (n−1)/n of the input, an all-reduce twice
// that. Integer division truncates, as the cost model's does.
func (g *Group) allGatherBytes(x *tensor.Tensor) int64 {
	return int64(x.Len()) * 4 * int64(len(g.ranks)-1)
}

func (g *Group) reduceScatterBytes(x *tensor.Tensor) int64 {
	return int64(x.Len()) * 4 * int64(len(g.ranks)-1) / int64(len(g.ranks))
}

func (g *Group) allReduceBytes(x *tensor.Tensor) int64 {
	return int64(x.Len()) * 4 * 2 * int64(len(g.ranks)-1) / int64(len(g.ranks))
}

// AllGatherCols concatenates the members' tensors along columns in local-rank
// order — the output assembly of a gather-output column-parallel linear. One
// shared concatenation plus one clone per rank, instead of a clone per part
// and a second concatenation copy.
func (g *Group) AllGatherCols(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	g.account(globalRank, "allgather", g.allGatherBytes(x))
	return g.enter(globalRank, "allgathercols", x, func(contribs, results []*tensor.Tensor) {
		shared := tensor.ConcatCols(contribs...)
		for i := range results {
			results[i] = shared
		}
	}).Clone()
}

// AllGather concatenates the members' tensors along dimension 0 (rows) in
// local-rank order. This is the KV all-gather of the paper's CP design (§4)
// and the parameter all-gather of FSDP.
func (g *Group) AllGather(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	hier := g.collAccount(globalRank, "allgather", int64(x.Len()), g.allGatherBytes(x))
	return g.collEnter(globalRank, "allgather", hier, x, combineConcatRows).Clone()
}

// IAllGather is the nonblocking AllGather: the contribution registers
// immediately and the handle's Wait returns the row concatenation. The FSDP
// parameter-prefetch path issues these a configurable depth ahead of the
// consuming compute (§7.3.1).
func (g *Group) IAllGather(globalRank int, x *tensor.Tensor) *Handle {
	bytes := g.allGatherBytes(x)
	g.account(globalRank, "allgather", bytes)
	return g.iColl(globalRank, "allgather", bytes, x, combineConcatRows)
}

// ReduceScatter sums the members' tensors element-wise (accumulating in
// local-rank order, FP32) and returns to each member its row-chunk of the
// sum. Input rows must be divisible by the group size.
func (g *Group) ReduceScatter(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	hier := g.collAccount(globalRank, "reducescatter", int64(x.Len()), g.reduceScatterBytes(x))
	return g.collEnter(globalRank, "reducescatter", hier, x, combineReduceScatter(len(g.ranks))).Clone()
}

// IReduceScatter is the nonblocking ReduceScatter — the backward-overlapped
// gradient reduction of ZeRO-2 (§7.3.1). Accumulation order is local-rank
// order exactly as in the blocking op, so overlapping changes no bits.
func (g *Group) IReduceScatter(globalRank int, x *tensor.Tensor) *Handle {
	bytes := g.reduceScatterBytes(x)
	g.account(globalRank, "reducescatter", bytes)
	return g.iColl(globalRank, "reducescatter", bytes, x, combineReduceScatter(len(g.ranks)))
}

// AllReduce sums the members' tensors element-wise in local-rank order and
// returns the full sum to every member.
func (g *Group) AllReduce(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	hier := g.collAccount(globalRank, "allreduce", int64(x.Len()), g.allReduceBytes(x))
	return g.collEnter(globalRank, "allreduce", hier, x, combineSum).Clone()
}

// IAllReduce is the nonblocking AllReduce, with the blocking op's local-rank
// accumulation order.
func (g *Group) IAllReduce(globalRank int, x *tensor.Tensor) *Handle {
	bytes := g.allReduceBytes(x)
	g.account(globalRank, "allreduce", bytes)
	return g.iColl(globalRank, "allreduce", bytes, x, combineSum)
}

// AllReduceMax returns the element-wise maximum of the members' tensors —
// the reduction a vocabulary-parallel softmax needs for its global row max.
func (g *Group) AllReduceMax(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	g.account(globalRank, "allreducemax", g.allReduceBytes(x))
	return g.enter(globalRank, "allreducemax", x, func(contribs, results []*tensor.Tensor) {
		m := contribs[0].Clone()
		for _, c := range contribs[1:] {
			for i, v := range c.Data {
				if v > m.Data[i] {
					m.Data[i] = v
				}
			}
		}
		for i := range results {
			results[i] = m
		}
	}).Clone()
}

// Broadcast distributes root's tensor (root is a local rank) to all members.
// Non-root callers may pass nil. Under a tiered host layout the root's own
// volume is attributed intra-host, plus one inter-host issue from the root
// (the hop that fans its tensor out across hosts). No library path
// broadcasts; it is kept as the rooted case of the hier == flat, storm and
// closed-form-volume suites.
func (g *Group) Broadcast(globalRank, rootLocal int, x *tensor.Tensor) *tensor.Tensor {
	var bytes int64
	if x != nil {
		bytes = int64(x.Len()) * 4
	}
	hier := g.hier != nil
	if hier {
		g.account(globalRank, "broadcast.intra", bytes)
		if g.LocalRank(globalRank) == rootLocal {
			g.account(globalRank, "broadcast.inter", bytes)
		}
	} else {
		g.account(globalRank, "broadcast", bytes)
	}
	return g.collEnter(globalRank, "broadcast", hier, x, func(contribs, results []*tensor.Tensor) {
		src := contribs[rootLocal]
		if src == nil {
			panic(fmt.Sprintf("comm: broadcast root local rank %d passed nil", rootLocal))
		}
		// Clone once: results must not alias the staged contribution, which
		// returns to the arena as soon as this combine returns.
		shared := src.Clone()
		for i := range results {
			results[i] = shared
		}
	}).Clone()
}

// Barrier blocks until every member has reached it. No library path needs
// one (every collective is its own rendezvous); it is kept for the
// sequencing and storm suites, as the zero-length contribution that bypasses
// staging.
func (g *Group) Barrier(globalRank int) {
	g.account(globalRank, "barrier", 0)
	g.enter(globalRank, "barrier", tensor.New(0), func(contribs, results []*tensor.Tensor) {
		for i := range results {
			results[i] = contribs[0]
		}
	})
}
