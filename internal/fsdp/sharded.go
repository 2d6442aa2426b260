package fsdp

import (
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/optim"
)

// Sharded manages a rank's FSDP state as an ordered list of per-unit Shards
// — one unit per embedding, transformer block, and output head — instead of
// one monolithic flat buffer. Unit granularity is what makes overlap
// possible: ZeRO-3 can issue unit i+1's parameter all-gather while unit i
// computes (prefetch), and ZeRO-2 can reduce-scatter each unit's gradients
// behind the next backward (§7.3.1).
//
// With Prefetch == 0 and AsyncGrads == false every collective is issued
// blocking, in the identical order — and unit partitioning itself changes
// no numerics (reductions, the element-wise optimizer, and padding are all
// per-element) — so overlapped and synchronous runs are bitwise identical.
type Sharded struct {
	Group *comm.Group
	Rank  int
	Mode  Mode

	// Prefetch is the ZeRO-3 parameter-gather look-ahead depth: while unit
	// u computes, gathers for units u+1..u+Prefetch are in flight. 0 means
	// fully synchronous gathers (the pre-overlap behaviour).
	Prefetch int

	// AsyncGrads overlaps ZeRO-2's per-backward gradient reduce-scatter
	// with subsequent compute; reductions are drained in issue order at
	// step end, preserving the blocking accumulation order bitwise.
	AsyncGrads bool

	// Units are the per-unit shards in stage-major construction order
	// (embed, blocks..., head per virtual stage); this order defines the
	// collective issue order and must match across the FSDP group.
	Units []*Shard

	pendGather []*Pending // per-unit in-flight parameter gathers
	nextIssue  int        // gather-issue cursor for the current step
	pendGrads  []*Pending // in-flight gradient reductions, issue order
}

// NewSharded creates one Shard per parameter unit, each with its own slice
// of the sharded optimizer state (OptID = unit index).
func NewSharded(group *comm.Group, rank int, mode Mode, units [][]*model.Param, opt *optim.AdamW) *Sharded {
	s := &Sharded{Group: group, Rank: rank, Mode: mode}
	for i, ps := range units {
		sh := New(group, rank, mode, ps, opt)
		sh.OptID = i
		s.Units = append(s.Units, sh)
	}
	s.pendGather = make([]*Pending, len(s.Units))
	return s
}

// Params returns all managed parameters in unit order — the canonical
// parameter order checkpoints and comparisons rely on.
func (s *Sharded) Params() []*model.Param {
	var out []*model.Param
	for _, sh := range s.Units {
		out = append(out, sh.Params()...)
	}
	return out
}

// ShardLens returns each unit's per-rank flat shard length.
func (s *Sharded) ShardLens() []int {
	out := make([]int, len(s.Units))
	for i, sh := range s.Units {
		out[i] = sh.ShardLen()
	}
	return out
}

// GatherParams materialises every unit's full parameters, completing any
// in-flight prefetches first. Blocking; used by eval, checkpointing, and
// the ZeRO-3 sync path.
func (s *Sharded) GatherParams() {
	for u, sh := range s.Units {
		if p := s.pendGather[u]; p != nil {
			p.Wait()
			s.pendGather[u] = nil
			continue
		}
		sh.GatherParams()
	}
}

// ReleaseParams drops every unit's full-parameter materialisation (ZeRO-3
// post-use reshard).
func (s *Sharded) ReleaseParams() {
	for _, sh := range s.Units {
		sh.ReleaseParams()
	}
}

// StartGather begins a prefetched ZeRO-3 re-gather round: the first
// Prefetch units' all-gathers are issued before compute starts. Later units
// are issued by EnsureUnit as the window slides. No-op unless ZeRO-3 with
// Prefetch > 0.
func (s *Sharded) StartGather() {
	s.nextIssue = 0
	if s.Mode != ZeRO3 || s.Prefetch <= 0 {
		return
	}
	for s.nextIssue < len(s.Units) && s.nextIssue < s.Prefetch {
		s.pendGather[s.nextIssue] = s.Units[s.nextIssue].IGatherParams()
		s.nextIssue++
	}
}

// EnsureUnit makes unit u's parameters resident before its compute touches
// them: waits u's in-flight gather (or gathers synchronously if none was
// issued), then slides the prefetch window — consuming unit u issues the
// gather for the unit Prefetch ahead. Every rank of the FSDP group runs the
// same schedule and therefore calls EnsureUnit in the same order, which is
// what keeps the nonblocking collective sequence aligned across the group.
func (s *Sharded) EnsureUnit(u int) {
	if s.Mode != ZeRO3 {
		return
	}
	if p := s.pendGather[u]; p != nil {
		p.Wait()
		s.pendGather[u] = nil
	} else {
		s.Units[u].GatherParams()
	}
	if s.Prefetch <= 0 {
		return
	}
	for s.nextIssue < len(s.Units) && s.nextIssue <= u+s.Prefetch {
		if s.nextIssue > u && s.pendGather[s.nextIssue] == nil {
			s.pendGather[s.nextIssue] = s.Units[s.nextIssue].IGatherParams()
		}
		s.nextIssue++
	}
}

// ReduceScatterGrads reduces every unit's accumulated gradients — blocking
// per unit, or (AsyncGrads) issued nonblocking behind the next backward's
// compute and drained in issue order at step end.
func (s *Sharded) ReduceScatterGrads() {
	for _, sh := range s.Units {
		if s.AsyncGrads {
			s.pendGrads = append(s.pendGrads, sh.IReduceScatterGrads())
			continue
		}
		sh.ReduceScatterGrads()
	}
}

// DrainGrads completes in-flight gradient reductions in issue order,
// reproducing the blocking accumulation order into each gradient shard.
func (s *Sharded) DrainGrads() {
	for _, p := range s.pendGrads {
		p.Wait()
	}
	s.pendGrads = s.pendGrads[:0]
}

// Step completes the training step: drains overlapped gradient reductions,
// then runs each unit's reduce → sharded optimizer → all-gather in unit
// order (the identical collective sequence on every rank).
func (s *Sharded) Step() {
	s.DrainGrads()
	for _, sh := range s.Units {
		sh.Step()
	}
}

// MemoryBytes sums the per-unit steady-state memory accounting.
func (s *Sharded) MemoryBytes(optStateBytesPerParam int) int64 {
	var total int64
	for _, sh := range s.Units {
		total += sh.MemoryBytes(optStateBytesPerParam)
	}
	return total
}

// GradShardMaxAbs returns the largest accumulated gradient-shard magnitude
// across units (diagnostics).
func (s *Sharded) GradShardMaxAbs() float32 {
	var m float32
	for _, sh := range s.Units {
		if v := sh.GradShardMaxAbs(); v > m {
			m = v
		}
	}
	return m
}
