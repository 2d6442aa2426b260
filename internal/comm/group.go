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
// contribution (and destination), and — if it is the last arriver — runs
// combine and releases the peers. It returns the slot, the caller's local
// rank, and whether the caller completed the collective. Claiming the
// sequence number in the issuing goroutine (never a helper) is what keeps
// nonblocking collectives ordered identically to blocking ones: a rank's
// issue order IS its collective order.
//
// Fault injection happens here, before the contribution registers: a
// crashing rank never arrives, so its peers block — exactly the production
// failure mode the world's detection machinery must catch.
//
// stage asks for the contribution to be staged (see collSlot.deposit). A
// one-member group never stages: its combine runs inside this call, before
// the caller regains its tensor.
func (g *Group) post(globalRank int, op string, contrib, dst *tensor.Tensor, stage bool, combine func(contribs []*tensor.Tensor, results []*tensor.Tensor)) (slot *collSlot, lr int, last bool) {
	lr = g.LocalRank(globalRank)
	g.world.beforeOp(globalRank, g.Label+"."+op, contrib)

	seq := g.seq[lr].flat
	g.seq[lr].flat++
	n := len(g.ranks)
	slot = g.rv.claim(seq, op, n, n)
	slot.deposit(lr, contrib, dst, stage && n > 1)
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
func (g *Group) enter(globalRank int, op string, contrib, dst *tensor.Tensor, stage bool, combine func(contribs []*tensor.Tensor, results []*tensor.Tensor)) *tensor.Tensor {
	if g.world.Recorder != nil {
		start := time.Now()
		defer func() {
			g.world.Recorder.RecordComm(globalRank, g.Label, time.Since(start).Seconds())
		}()
	}
	slot, lr, last := g.post(globalRank, op, contrib, dst, stage, combine)
	if !last {
		g.world.await(globalRank, g.Label+"."+op, slot.done)
	}
	return g.finishSlot(slot, lr)
}

// iColl issues a nonblocking collective: the contribution is staged and
// registers now (so peers can proceed and the combine runs as soon as the
// last member posts), and the handle's Wait yields the caller's slot result.
// The op string matches the blocking variant, so blocking and nonblocking
// callers interoperate within one collective on flat groups. Nonblocking
// collectives always take the flat transport — overlap-engine traffic is
// latency-hidden by design, so the hierarchy would buy nothing — which means
// a group with a tiered host layout must not mix blocking and nonblocking
// members within one collective (they would rendezvous in different slot
// spaces).
func (g *Group) iColl(globalRank int, op string, bytes int64, contrib, dst *tensor.Tensor, combine func(contribs []*tensor.Tensor, results []*tensor.Tensor)) *Handle {
	slot, lr, _ := g.post(globalRank, op, contrib, dst, true, combine)
	h := &Handle{
		w:      g.world,
		rank:   globalRank,
		label:  g.Label,
		op:     op,
		bytes:  bytes,
		issued: time.Now(),
		ready:  slot.done,
	}
	h.finish = func() *tensor.Tensor { return g.finishSlot(slot, lr) }
	return h
}

// combineAllGather is AllGather's combine: the members' contributions, in
// local-rank order, land one after another along the rows of every
// member's destination. A member without one (the allocating form) gets a
// fresh tensor sized from the contributions, so members may contribute
// unequal row counts. A destination whose rows already hold a contribution
// — a member gathering into the buffer its own shard lives in — skips that
// copy.
func combineAllGather(contribs, results []*tensor.Tensor) {
	rows, cols := 0, contribs[0].Cols()
	for _, c := range contribs {
		if c.Cols() != cols {
			panic(fmt.Sprintf("comm: allgather column mismatch %d vs %d", c.Cols(), cols))
		}
		rows += c.Rows()
	}
	for i, dst := range results {
		if dst == nil {
			dst = tensor.GetUninit(rows, cols)
			results[i] = dst
		}
		off := 0
		for _, c := range contribs {
			seg := dst.Data[off : off+len(c.Data)]
			if len(seg) > 0 && &seg[0] != &c.Data[0] {
				copy(seg, c.Data)
			}
			off += len(c.Data)
		}
	}
}

// combineSum is AllReduce's combine: element-wise sum accumulated in
// local-rank order (the determinism contract), formed once and handed to
// every member as its own copy.
func combineSum(contribs, results []*tensor.Tensor) {
	sum := contribs[0].Clone()
	for _, c := range contribs[1:] {
		sum.Add(c)
	}
	handOut(sum, results)
}

// handOut gives every member its own pooled result: the first member gets
// res, the others copies of it. A member owns what it returns (it may Put
// it), so no result is shared and none is left to leak from the pool.
func handOut(res *tensor.Tensor, results []*tensor.Tensor) {
	results[0] = res
	for i := 1; i < len(results); i++ {
		results[i] = res.Clone()
	}
}

// combineReduceScatter is ReduceScatter's combine: member i's row chunk of
// the element-wise sum, accumulated per element in local-rank order
// (c₀ + c₁ + …, the determinism contract), is added into member i's
// destination. A member without one (the allocating form) gets a fresh
// chunk holding the sum itself.
func combineReduceScatter(contribs, results []*tensor.Tensor) {
	x := contribs[0]
	for i, dst := range results {
		fresh := dst == nil
		if fresh {
			dst = tensor.GetUninit(append([]int{x.Rows() / len(results)}, x.Shape[1:]...)...)
			results[i] = dst
		}
		// Sum a block at a time in a stack buffer (plain slice loops), and
		// only then add it to the destination. c₀ alone is read in place.
		var buf [512]float32
		lo := i * dst.Len()
		for b := 0; b < dst.Len(); b += len(buf) {
			d := dst.Data[b:min(b+len(buf), dst.Len())]
			sum := x.Data[lo+b : lo+b+len(d)]
			if len(contribs) > 1 {
				sum = buf[:copy(buf[:len(d)], sum)]
				for _, c := range contribs[1:] {
					add(sum, c.Data[lo+b:])
				}
			}
			if fresh {
				copy(d, sum)
			} else {
				add(d, sum)
			}
		}
	}
}

// add computes dst += src element-wise; len(src) >= len(dst).
func add(dst, src []float32) {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] += v
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
// concatenation, then a copy of it for every other member.
func (g *Group) AllGatherCols(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	g.account(globalRank, "allgather", g.allGatherBytes(x))
	return g.enter(globalRank, "allgathercols", x, nil, true, func(contribs, results []*tensor.Tensor) {
		handOut(tensor.ConcatCols(contribs...), results)
	})
}

// AllGather concatenates the members' tensors along dimension 0 (rows) in
// local-rank order and returns the concatenation, freshly allocated. This is
// the KV all-gather of the paper's CP design (§4); members may contribute
// unequal row counts.
func (g *Group) AllGather(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	hier := g.collAccount(globalRank, "allgather", int64(x.Len()), g.allGatherBytes(x))
	return g.collEnter(globalRank, "allgather", hier, x, nil, true, combineAllGather)
}

// AllGatherInto is AllGather into a caller-owned destination of Size()·len(x)
// elements: member k's contribution lands in dst's k-th chunk. A dst chunk
// that already is x (a shard gathering into its own flat buffer) is not
// copied. x is read in place, not staged: it must be memory that is never
// recycled to a pool (FSDP's flat buffers), since after an abort a peer's
// late combine may still read it. This is FSDP's parameter all-gather.
func (g *Group) AllGatherInto(globalRank int, x, dst *tensor.Tensor) {
	checkDst("allgather", x, dst, g.Size())
	hier := g.collAccount(globalRank, "allgather", int64(x.Len()), g.allGatherBytes(x))
	g.collEnter(globalRank, "allgather", hier, x, dst, false, combineAllGather)
}

// IAllGather is the nonblocking AllGatherInto: x is staged at issue, and
// dst is the collective's until Wait (a peer's combine writes it). FSDP's
// parameter prefetch issues these ahead of the consuming compute (§7.3.1).
func (g *Group) IAllGather(globalRank int, x, dst *tensor.Tensor) *Handle {
	checkDst("allgather", x, dst, g.Size())
	bytes := g.allGatherBytes(x)
	g.account(globalRank, "allgather", bytes)
	return g.iColl(globalRank, "allgather", bytes, x, dst, combineAllGather)
}

// ReduceScatter sums the members' tensors element-wise (accumulating in
// local-rank order, FP32) and returns to each member its row-chunk of the
// sum, freshly allocated. Input rows must be divisible by the group size.
func (g *Group) ReduceScatter(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	if x.Rows()%g.Size() != 0 {
		panic(fmt.Sprintf("comm: reducescatter of %d rows over %d members", x.Rows(), g.Size()))
	}
	hier := g.collAccount(globalRank, "reducescatter", int64(x.Len()), g.reduceScatterBytes(x))
	return g.collEnter(globalRank, "reducescatter", hier, x, nil, true, combineReduceScatter)
}

// ReduceScatterInto adds this member's chunk of the sum into a caller-owned
// dst of len(x)/Size() elements (dst += c₀ + c₁ + …, the sum formed first),
// the accumulation FSDP's gradient shard needs. x is read in place, under
// AllGatherInto's rule.
func (g *Group) ReduceScatterInto(globalRank int, x, dst *tensor.Tensor) {
	checkDst("reducescatter", dst, x, g.Size())
	hier := g.collAccount(globalRank, "reducescatter", int64(x.Len()), g.reduceScatterBytes(x))
	g.collEnter(globalRank, "reducescatter", hier, x, dst, false, combineReduceScatter)
}

// IReduceScatter is the nonblocking ReduceScatterInto — ZeRO-2's
// backward-overlapped gradient reduction (§7.3.1). x is staged at issue, so
// the caller may reuse it at once; dst is the collective's until Wait.
// Accumulation and issue order match the blocking op: no bits change.
func (g *Group) IReduceScatter(globalRank int, x, dst *tensor.Tensor) *Handle {
	checkDst("reducescatter", dst, x, g.Size())
	bytes := g.reduceScatterBytes(x)
	g.account(globalRank, "reducescatter", bytes)
	return g.iColl(globalRank, "reducescatter", bytes, x, dst, combineReduceScatter)
}

// checkDst panics unless whole holds exactly n times part's elements.
func checkDst(op string, part, whole *tensor.Tensor, n int) {
	if whole.Len() != n*part.Len() {
		panic(fmt.Sprintf("comm: %s over %d members: %d elements vs %d", op, n, whole.Len(), part.Len()))
	}
}

// AllReduce sums the members' tensors element-wise in local-rank order and
// returns the full sum to every member.
func (g *Group) AllReduce(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	hier := g.collAccount(globalRank, "allreduce", int64(x.Len()), g.allReduceBytes(x))
	return g.collEnter(globalRank, "allreduce", hier, x, nil, true, combineSum)
}

// IAllReduce is the nonblocking AllReduce, with the blocking op's local-rank
// accumulation order.
func (g *Group) IAllReduce(globalRank int, x *tensor.Tensor) *Handle {
	bytes := g.allReduceBytes(x)
	g.account(globalRank, "allreduce", bytes)
	return g.iColl(globalRank, "allreduce", bytes, x, nil, combineSum)
}

// AllReduceMax returns the element-wise maximum of the members' tensors —
// the reduction a vocabulary-parallel softmax needs for its global row max.
func (g *Group) AllReduceMax(globalRank int, x *tensor.Tensor) *tensor.Tensor {
	g.account(globalRank, "allreducemax", g.allReduceBytes(x))
	return g.enter(globalRank, "allreducemax", x, nil, true, func(contribs, results []*tensor.Tensor) {
		m := contribs[0].Clone()
		for _, c := range contribs[1:] {
			for i, v := range c.Data {
				if v > m.Data[i] {
					m.Data[i] = v
				}
			}
		}
		handOut(m, results)
	})
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
	return g.collEnter(globalRank, "broadcast", hier, x, nil, true, func(contribs, results []*tensor.Tensor) {
		src := contribs[rootLocal]
		if src == nil {
			panic(fmt.Sprintf("comm: broadcast root local rank %d passed nil", rootLocal))
		}
		// Clone: results must not alias the staged contribution, which
		// returns to the arena as soon as this combine returns.
		handOut(src.Clone(), results)
	})
}

// Barrier blocks until every member has reached it. No library path needs
// one (every collective is its own rendezvous); it is kept for the
// sequencing and storm suites, as the zero-length contribution that bypasses
// staging.
func (g *Group) Barrier(globalRank int) {
	g.account(globalRank, "barrier", 0)
	g.enter(globalRank, "barrier", tensor.New(0), nil, true, func(contribs, results []*tensor.Tensor) {
		for i := range results {
			results[i] = contribs[0]
		}
	})
}
