// Package fsdp implements fully sharded data parallelism with the three
// ZeRO sharding strategies the paper's in-house FSDP supports (§2.1):
//
//	ZeRO-1: shard optimizer states; keep full parameters and full gradients.
//	ZeRO-2: additionally reshard gradients — reduce-scatter per backward
//	        (the gradient-memory/communication trade-off of Fig 4).
//	ZeRO-3: additionally shard parameters at rest — all-gather before use.
//
// Parameters are flattened into one padded flat buffer per Shard; each rank
// owns a contiguous 1/n slice of it. The optimizer only ever sees the local
// shard (sharded optimizer states), and reductions accumulate in FP32 in
// deterministic rank order (§6.2).
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
	flatLen   int // padded to a multiple of group size
	shardLen  int
	gradShard []float32 // this rank's accumulated reduced gradients
	opt       *optim.AdamW
	gathered  bool // ZeRO-3: whether full params are currently materialised
}

// New creates an FSDP shard over the given parameters. The parameter tensors
// remain the compute buffers; for ZeRO-3 their contents are released between
// uses (only the owner shard persists authoritative values).
func New(group *comm.Group, rank int, mode Mode, params []*model.Param, opt *optim.AdamW) *Shard {
	n := 0
	for _, p := range params {
		n += p.W.Len()
	}
	size := group.Size()
	flatLen := (n + size - 1) / size * size
	s := &Shard{
		Group: group, Rank: rank, Mode: mode,
		params: params, flatLen: flatLen, shardLen: flatLen / size,
		gradShard: make([]float32, flatLen/size),
		opt:       opt,
	}
	s.gathered = true // freshly constructed: replicas hold full params
	return s
}

// Params returns the managed parameters.
func (s *Shard) Params() []*model.Param { return s.params }

// ShardLen returns the per-rank flat shard length (including padding).
func (s *Shard) ShardLen() int { return s.shardLen }

// flattenWeights copies all parameter values into a padded flat tensor drawn
// from the tensor pool (zeroed Get: the padding tail must read as zero).
func (s *Shard) flattenWeights() *tensor.Tensor {
	flat := tensor.Get(s.flatLen)
	off := 0
	for _, p := range s.params {
		copy(flat.Data[off:], p.W.Data)
		off += p.W.Len()
	}
	return flat
}

// flattenGrads copies all gradient values into a padded flat tensor and
// zeroes the per-parameter accumulators.
func (s *Shard) flattenGrads() *tensor.Tensor {
	flat := tensor.Get(s.flatLen)
	off := 0
	for _, p := range s.params {
		copy(flat.Data[off:], p.G.Data)
		p.G.Zero()
		off += p.G.Len()
	}
	return flat
}

// unflattenWeights writes a full flat weight buffer back into the parameters.
func (s *Shard) unflattenWeights(flat *tensor.Tensor) {
	off := 0
	for _, p := range s.params {
		copy(p.W.Data, flat.Data[off:off+p.W.Len()])
		off += p.W.Len()
	}
}

// localShard returns this rank's slice of a full flat buffer.
func (s *Shard) localShard(flat *tensor.Tensor) []float32 {
	lr := s.Group.LocalRank(s.Rank)
	return flat.Data[lr*s.shardLen : (lr+1)*s.shardLen]
}

// ReduceScatterGrads reduce-scatters the currently accumulated per-parameter
// gradients across the group, adding the result into this rank's gradient
// shard, and clears the full-size accumulators.
//
// ZeRO-2 calls this after every backward (resharding gradient memory at the
// cost of more collectives); ZeRO-1 calls it once per step via Step — the
// exact trade-off of Fig 4.
func (s *Shard) ReduceScatterGrads() {
	flat := s.flattenGrads()
	reduced := s.Group.ReduceScatter(s.Rank, flat.Reshape(s.Group.Size(), s.shardLen))
	tensor.Put(flat)
	for i, v := range reduced.Data {
		s.gradShard[i] += v
	}
	tensor.Put(reduced)
}

// Pending is an in-flight nonblocking FSDP collective: the comm handle plus
// the local completion work (unflatten, accumulate, pool returns) that runs
// when it is waited. Wait is idempotent; a nil Pending waits as a no-op.
type Pending struct {
	h      *comm.Handle
	finish func(res *tensor.Tensor)
	done   bool
}

// Wait blocks until the collective completes and applies its result. Abort-
// and deadline-aware via the underlying handle.
func (p *Pending) Wait() {
	if p == nil || p.done {
		return
	}
	p.finish(p.h.Wait())
	p.done = true
}

// Done reports without blocking whether the collective has completed (Wait
// would not block). A nil Pending is done.
func (p *Pending) Done() bool { return p == nil || p.done || p.h.Done() }

// IGatherParams issues the ZeRO-3 parameter all-gather nonblocking — the
// prefetch primitive: issue unit i+1's gather while unit i computes
// (§7.3.1). Returns nil if the parameters are already materialised. The
// returned Pending's Wait unflattens the gathered weights; until then the
// unit's parameters must not be touched.
func (s *Shard) IGatherParams() *Pending {
	if s.gathered {
		return nil
	}
	shard := tensor.FromSlice(s.ownedWeights(), s.shardLen)
	h := s.Group.IAllGather(s.Rank, shard)
	return &Pending{h: h, finish: func(full *tensor.Tensor) {
		s.unflattenWeights(full)
		tensor.Put(full)
		s.gathered = true
	}}
}

// IReduceScatterGrads issues the gradient reduce-scatter nonblocking: the
// accumulators are flattened and zeroed now (so subsequent backwards
// accumulate into fresh buffers), the reduction overlaps whatever the rank
// computes next, and Wait folds the reduced shard into gradShard. Waiting
// pendings in issue order reproduces the blocking accumulation order into
// gradShard exactly — the bitwise-under-overlap invariant.
func (s *Shard) IReduceScatterGrads() *Pending {
	flat := s.flattenGrads()
	h := s.Group.IReduceScatter(s.Rank, flat.Reshape(s.Group.Size(), s.shardLen))
	return &Pending{h: h, finish: func(reduced *tensor.Tensor) {
		// flat is the registered contribution; it is only safe to recycle
		// after the combine ran, i.e. after Wait returned.
		tensor.Put(flat)
		for i, v := range reduced.Data {
			s.gradShard[i] += v
		}
		tensor.Put(reduced)
	}}
}

// GatherParams materialises the full parameters (ZeRO-3 pre-forward /
// pre-backward all-gather). A no-op if already gathered.
func (s *Shard) GatherParams() {
	if s.gathered {
		return
	}
	// Owner shards are authoritative: broadcast them via all-gather.
	shard := tensor.FromSlice(s.ownedWeights(), s.shardLen)
	full := s.Group.AllGather(s.Rank, shard)
	s.unflattenWeights(full)
	tensor.Put(full)
	s.gathered = true
}

// ownedWeights extracts this rank's authoritative weight shard from the
// (currently materialised or stale) parameter buffers. Ranks always keep
// their own shard region valid.
func (s *Shard) ownedWeights() []float32 {
	flat := s.flattenWeights()
	owned := append([]float32(nil), s.localShard(flat)...)
	tensor.Put(flat)
	return owned
}

// ReleaseParams drops the full parameter materialisation (ZeRO-3 post-use
// reshard): every region outside this rank's shard is zeroed. The paper's
// memory optimisations (§6.3) are about exactly this kind of eager release.
func (s *Shard) ReleaseParams() {
	if s.Mode != ZeRO3 {
		return
	}
	owned := s.ownedWeights() // already an independent copy
	for _, p := range s.params {
		p.W.Zero()
	}
	flat := tensor.Get(s.flatLen)
	copy(s.localShard(flat), owned)
	s.unflattenWeights(flat)
	tensor.Put(flat)
	s.gathered = false
}

// Step completes a training step: ensures gradients are reduced, runs the
// (sharded) optimizer on this rank's weight shard, and all-gathers the
// updated parameters back into the full buffers (ZeRO-1/2) or leaves them
// sharded (ZeRO-3 callers re-gather on next use via GatherParams).
func (s *Shard) Step() {
	// ZeRO-1 reduces once per step, on the last micro-batch (Fig 4a). For
	// ZeRO-2/3 the per-backward reductions already emptied the accumulators,
	// so this final reduce-scatter sums zeros; keeping it unconditional keeps
	// the collective sequence identical on every rank.
	s.ReduceScatterGrads()

	flatW := s.flattenWeights()
	local := s.localShard(flatW)
	s.opt.Step(s.OptID, local, s.gradShard)
	for i := range s.gradShard {
		s.gradShard[i] = 0
	}

	updated := s.Group.AllGather(s.Rank, tensor.FromSlice(local, s.shardLen))
	tensor.Put(flatW)
	s.unflattenWeights(updated)
	tensor.Put(updated)
	s.gathered = true
	if s.Mode == ZeRO3 {
		s.ReleaseParams()
	}
}

// GradShardMaxAbs returns the largest accumulated gradient-shard magnitude
// (diagnostics).
func (s *Shard) GradShardMaxAbs() float32 {
	var m float32
	for _, v := range s.gradShard {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// MemoryBytes reports the per-rank steady-state memory of this unit under
// the shard's mode, in bytes, assuming 2-byte (BF16) parameters/gradients
// and optStateBytesPerParam bytes of optimizer state per parameter — the
// accounting behind the ZeRO rows of the paper's memory analysis.
func (s *Shard) MemoryBytes(optStateBytesPerParam int) int64 {
	n := int64(s.flatLen)
	shard := int64(s.shardLen)
	var params, grads int64
	switch s.Mode {
	case ZeRO1:
		params, grads = 2*n, 2*n
	case ZeRO2:
		params, grads = 2*n, 2*shard
	case ZeRO3:
		params, grads = 2*shard, 2*shard
	}
	return params + grads + int64(optStateBytesPerParam)*shard
}
