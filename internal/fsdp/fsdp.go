// Package fsdp implements fully sharded data parallelism with the three
// ZeRO sharding strategies the paper's in-house FSDP supports (§2.1):
//
//	ZeRO-1: shard optimizer states; keep full parameters and full gradients.
//	ZeRO-2: additionally reshard gradients — reduce-scatter per backward
//	        (the gradient-memory/communication trade-off of Fig 4).
//	ZeRO-3: additionally shard parameters at rest — all-gather before use.
//
// Each Shard owns one padded flat weight buffer and one padded flat
// gradient buffer for its lifetime, and every managed parameter's W and G
// are views into them (PyTorch FSDP1's FlatParameter). Each rank owns a
// contiguous 1/n slice of the flat buffers; the collectives read and write
// them in place. The optimizer only ever sees the local shard (sharded
// optimizer states), and reductions accumulate in FP32 in deterministic
// rank order (§6.2).
package fsdp

import (
	"fmt"

	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/optim"
	"llama4d/internal/tensor"
)

// Mode selects the ZeRO sharding strategy.
type Mode int

// ZeRO sharding strategies, in increasing order of what gets sharded.
const (
	ZeRO1 Mode = 1
	ZeRO2 Mode = 2
	ZeRO3 Mode = 3
)

func (m Mode) String() string {
	switch m {
	case ZeRO1:
		return "ZeRO-1"
	case ZeRO2:
		return "ZeRO-2"
	case ZeRO3:
		return "ZeRO-3"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Shard manages the FSDP state of one rank for one group of parameters
// (a "unit": a block, a stage, or a whole model).
type Shard struct {
	Group *comm.Group
	Rank  int // global rank
	Mode  Mode

	// OptID namespaces this unit's slice of the sharded optimizer state;
	// Sharded assigns unit indices so each unit keeps its own moments.
	OptID int

	params    []*model.Param
	w, g      *tensor.Tensor // padded flat weights and gradients; every W and G is a view
	own       *tensor.Tensor // this rank's shard of w
	shardLen  int
	gradShard []float32 // this rank's accumulated reduced gradients
	alias     bool      // gradShard is g's storage: ZeRO-1 over a group of one
	opt       *optim.AdamW
	gathered  bool // ZeRO-3: whether full params are currently materialised
}

// New creates an FSDP shard over the given parameters. Their values are
// copied once into the shard's flat buffers, in order, and each parameter's
// W and G are rebound to views of them: layers keep reading p.W and p.G,
// which now are the flat storage. For ZeRO-3 the non-owned ranges are
// released between uses (only the owner shard persists authoritative
// values). A parameter listed twice panics: it would alias two ranges.
//
// ZeRO-1 over a group of one has nothing to reduce: its gradient shard is
// the flat gradient buffer, and no reduce-scatter is issued. No bit changes:
// AdamW reads g instead of +0 + g, and for β1 > ½ it does not see a zero
// gradient's sign (DESIGN.md §4d). ZeRO-2/3 keep their reductions.
func New(group *comm.Group, rank int, mode Mode, params []*model.Param, opt *optim.AdamW) *Shard {
	n := 0
	seen := make(map[*model.Param]bool, len(params))
	for _, p := range params {
		if seen[p] {
			panic(fmt.Sprintf("fsdp: parameter %q appears twice in one unit", p.Name))
		}
		seen[p] = true
		n += p.W.Len()
	}
	size := group.Size()
	flatLen := (n + size - 1) / size * size
	shardLen := flatLen / size
	s := &Shard{
		Group: group, Rank: rank, Mode: mode,
		params: params, w: tensor.New(flatLen), g: tensor.New(flatLen), shardLen: shardLen,
		gradShard: make([]float32, shardLen),
		alias:     mode == ZeRO1 && size == 1,
		opt:       opt,
		gathered:  true, // freshly constructed: replicas hold full params
	}
	if s.alias {
		s.gradShard = s.g.Data
	}
	off := 0
	for _, p := range params {
		k := p.W.Len()
		copy(s.w.Data[off:], p.W.Data)
		copy(s.g.Data[off:], p.G.Data)
		// RowSlice and Reshape mark the views, so the pool refuses them even
		// where a slice ends at the buffer's end (len == cap).
		p.W = s.w.RowSlice(off, off+k).Reshape(p.W.Shape...)
		p.G = s.g.RowSlice(off, off+k).Reshape(p.G.Shape...)
		off += k
	}
	lr := group.LocalRank(rank)
	s.own = s.w.RowSlice(lr*shardLen, (lr+1)*shardLen)
	return s
}

// Params returns the managed parameters.
func (s *Shard) Params() []*model.Param { return s.params }

// ShardLen returns the per-rank flat shard length (including padding).
func (s *Shard) ShardLen() int { return s.shardLen }

// ReduceScatterGrads reduce-scatters the accumulated flat gradients across
// the group, adding the result into this rank's gradient shard, and clears
// the flat gradient buffer.
//
// ZeRO-2 calls this after every backward (resharding gradient memory at the
// cost of more collectives); ZeRO-1 calls it once per step via Step — the
// exact trade-off of Fig 4. ZeRO-1 over a group of one issues nothing.
func (s *Shard) ReduceScatterGrads() {
	if s.alias {
		return
	}
	s.Group.ReduceScatterInto(s.Rank, s.g, tensor.FromSlice(s.gradShard, s.shardLen))
	s.g.Zero()
}

// Pending is an in-flight nonblocking FSDP collective: the comm handle plus
// the local completion work that runs when it is waited. Wait is
// idempotent; a nil Pending waits as a no-op.
type Pending struct {
	h    *comm.Handle
	then func() // nil: nothing left to do locally
	done bool
}

// Wait blocks until the collective completes and applies its result. Abort-
// and deadline-aware via the underlying handle.
func (p *Pending) Wait() {
	if p == nil || p.done {
		return
	}
	p.h.Wait()
	if p.then != nil {
		p.then()
	}
	p.done = true
}

// Done reports without blocking whether the collective has completed (Wait
// would not block). A nil Pending is done.
func (p *Pending) Done() bool { return p == nil || p.done || p.h.Done() }

// IGatherParams issues the ZeRO-3 parameter all-gather nonblocking — the
// prefetch primitive: issue unit i+1's gather while unit i computes
// (§7.3.1). Returns nil if the parameters are already materialised. The
// gather writes the flat weight buffer; until the returned Pending's Wait,
// the unit's parameters must not be touched.
func (s *Shard) IGatherParams() *Pending {
	if s.gathered {
		return nil
	}
	h := s.Group.IAllGather(s.Rank, s.own, s.w)
	return &Pending{h: h, then: func() { s.gathered = true }}
}

// IReduceScatterGrads issues the gradient reduce-scatter nonblocking: the
// collective stages the flat gradients at issue, so the buffer is cleared
// now and subsequent backwards accumulate into it while the reduction
// overlaps whatever the rank computes next. The combine adds into
// gradShard, in issue order — the blocking accumulation order exactly, the
// bitwise-under-overlap invariant. gradShard is the collective's until the
// returned Pending is waited. ZeRO-1 over a group of one issues nothing.
func (s *Shard) IReduceScatterGrads() *Pending {
	if s.alias {
		return nil
	}
	h := s.Group.IReduceScatter(s.Rank, s.g, tensor.FromSlice(s.gradShard, s.shardLen))
	s.g.Zero()
	return &Pending{h: h}
}

// GatherParams materialises the full parameters (ZeRO-3 pre-forward /
// pre-backward all-gather). A no-op if already gathered.
func (s *Shard) GatherParams() {
	if s.gathered {
		return
	}
	// Owner shards are authoritative: every rank's own range is current.
	s.Group.AllGatherInto(s.Rank, s.own, s.w)
	s.gathered = true
}

// ReleaseParams drops the full parameter materialisation (ZeRO-3 post-use
// reshard): every range of the flat weight buffer outside this rank's shard
// is zeroed. The paper's memory optimisations (§6.3) are about exactly this
// kind of eager release.
func (s *Shard) ReleaseParams() {
	if s.Mode != ZeRO3 {
		return
	}
	lo := s.Group.LocalRank(s.Rank) * s.shardLen
	clear(s.w.Data[:lo])
	clear(s.w.Data[lo+s.shardLen:])
	s.gathered = false
}

// Step completes a training step: ensures gradients are reduced, runs the
// (sharded) optimizer on this rank's weight shard in place, and all-gathers
// the updated shards into the flat weight buffer (ZeRO-1/2) or leaves it
// sharded (ZeRO-3 callers re-gather on next use via GatherParams).
func (s *Shard) Step() {
	// ZeRO-1 reduces once per step, on the last micro-batch (Fig 4a), or
	// over a group of one steps on the flat gradients and clears them below.
	// For ZeRO-2/3 the per-backward reductions already emptied the
	// accumulators, so this final reduce-scatter sums zeros; keeping it
	// unconditional keeps the collective sequence identical on every rank.
	s.ReduceScatterGrads()

	s.opt.Step(s.OptID, s.own.Data, s.gradShard)
	clear(s.gradShard)

	s.Group.AllGatherInto(s.Rank, s.own, s.w)
	s.gathered = true
	if s.Mode == ZeRO3 {
		s.ReleaseParams()
	}
}
