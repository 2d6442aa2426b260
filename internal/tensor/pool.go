package tensor

import (
	"sync"
	"sync/atomic"
)

// Pool is a size-keyed free list of tensors: an arena for the functional
// layer's hot loops, where every op otherwise allocates a fresh output and
// GC churn dominates larger configs. Get reuses a retired tensor of the
// exact element count when one is available; Put retires a tensor for reuse.
//
// Ownership rules (see DESIGN.md "Performance of the functional layer"):
//
//   - Put transfers ownership to the pool: the caller must hold no live
//     references — including views made with Row, RowSlice, or Reshape —
//     to the tensor afterwards.
//   - Get returns a zeroed tensor (like New); GetUninit skips the zeroing
//     for destinations that are fully overwritten.
//   - Putting is always optional: an un-Put tensor is simply garbage
//     collected, so pooling never changes results, only allocation counts.
//
// A Pool is safe for concurrent use; reductions in the comm package and
// row-parallel kernels may Get/Put from many rank goroutines at once.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*Tensor

	gets, hits, puts, rejects int64 // guarded by mu

	// tags breaks the traffic down by caller-supplied tag for the
	// GetTag/PutTag entry points. Tagged ops count in both the global
	// counters and their tag's counters, so a tag's share of the arena
	// traffic is directly comparable to the totals.
	tags map[string]*PoolStats // guarded by mu
}

// PoolStats reports pool traffic: Gets (and how many were served from the
// free list), Puts, and Puts rejected by the safety checks.
type PoolStats struct {
	Gets, Hits, Puts, Rejects int64
}

// NewPool creates an empty pool.
func NewPool() *Pool {
	return &Pool{free: make(map[int][]*Tensor)}
}

// Get returns a zeroed tensor of the given shape, reusing a retired tensor
// of the same element count when possible. A nil pool degrades to New.
func (p *Pool) Get(shape ...int) *Tensor {
	t := p.GetUninit(shape...)
	if t != nil {
		t.Zero()
	}
	return t
}

// GetUninit returns a tensor of the given shape with UNDEFINED contents —
// for destinations the caller fully overwrites (the GEMM outputs, Clone).
// A nil pool degrades to New (which zeroes).
func (p *Pool) GetUninit(shape ...int) *Tensor {
	return p.getUninitTagged("", shape)
}

// GetTag is Get with the traffic attributed to tag in addition to the
// global counters — how a subsystem (the serving KV-cache's page frames,
// for instance) keeps its arena footprint distinguishable from the rest of
// the world's Get/Put churn.
func (p *Pool) GetTag(tag string, shape ...int) *Tensor {
	t := p.getUninitTagged(tag, shape)
	if t != nil {
		t.Zero()
	}
	return t
}

// GetUninitTag is GetUninit with the traffic attributed to tag.
func (p *Pool) GetUninitTag(tag string, shape ...int) *Tensor {
	return p.getUninitTagged(tag, shape)
}

// tagLocked returns tag's counter block, creating it on first use.
// Caller holds p.mu.
func (p *Pool) tagLocked(tag string) *PoolStats {
	if p.tags == nil {
		p.tags = make(map[string]*PoolStats)
	}
	s := p.tags[tag]
	if s == nil {
		s = &PoolStats{}
		p.tags[tag] = s
	}
	return s
}

func (p *Pool) getUninitTagged(tag string, shape []int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	n := 1
	for _, s := range shape {
		if s < 0 {
			return New(shape...) // let New produce the canonical panic
		}
		n *= s
	}
	p.mu.Lock()
	p.gets++
	var ts *PoolStats
	if tag != "" {
		ts = p.tagLocked(tag)
		ts.Gets++
	}
	l := p.free[n]
	if len(l) == 0 {
		p.mu.Unlock()
		return New(shape...)
	}
	t := l[len(l)-1]
	l[len(l)-1] = nil
	p.free[n] = l[:len(l)-1]
	p.hits++
	if ts != nil {
		ts.Hits++
	}
	p.mu.Unlock()
	t.setShape(shape)
	return t
}

// Put retires tensors into the pool for reuse. Nil tensors are skipped;
// views made by RowSlice or Reshape, and tensors whose data slice does not
// own its full backing array (len != cap), are rejected — the guard against
// retiring storage a live parent still uses. A nil pool discards everything.
func (p *Pool) Put(ts ...*Tensor) {
	p.putTagged("", ts)
}

// PutTag is Put with the traffic attributed to tag. Pair it with GetTag
// so a tag's Gets−Puts delta reads as that subsystem's leak count.
func (p *Pool) PutTag(tag string, ts ...*Tensor) {
	p.putTagged(tag, ts)
}

func (p *Pool) putTagged(tag string, ts []*Tensor) {
	if p == nil {
		return
	}
	for _, t := range ts {
		if t == nil || len(t.Data) == 0 {
			continue
		}
		if t.view || len(t.Data) != cap(t.Data) {
			p.mu.Lock()
			p.rejects++
			if tag != "" {
				p.tagLocked(tag).Rejects++
			}
			p.mu.Unlock()
			continue
		}
		n := len(t.Data)
		p.mu.Lock()
		p.puts++
		if tag != "" {
			p.tagLocked(tag).Puts++
		}
		p.free[n] = append(p.free[n], t)
		p.mu.Unlock()
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Gets: p.gets, Hits: p.hits, Puts: p.puts, Rejects: p.rejects}
}

// TagStats returns a snapshot of the per-tag counters: one PoolStats per
// tag that has seen at least one GetTag/PutTag. The map is a copy.
func (p *Pool) TagStats() map[string]PoolStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.tags) == 0 {
		return nil
	}
	out := make(map[string]PoolStats, len(p.tags))
	for k, v := range p.tags {
		out[k] = *v
	}
	return out
}

// Reset drops every retired tensor (releasing the memory to the GC) and
// clears the counters, including the per-tag breakdown.
func (p *Pool) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = make(map[int][]*Tensor)
	p.gets, p.hits, p.puts, p.rejects = 0, 0, 0, 0
	p.tags = nil
}

// setShape points t at a (possibly different) shape with the same element
// count, reusing the Shape slice when capacity allows.
func (t *Tensor) setShape(shape []int) {
	if cap(t.Shape) >= len(shape) {
		t.Shape = t.Shape[:len(shape)]
		copy(t.Shape, shape)
		return
	}
	t.Shape = append([]int(nil), shape...)
}

// defaultPool is the arena behind the package-level Get/GetUninit/Put used
// by the kernels and the model hot paths. poolingOn gates it so the
// pooled-vs-unpooled bitwise tests can run the no-recycle reference.
var (
	defaultPool = NewPool()
	poolingOn   atomic.Bool
)

func init() { poolingOn.Store(true) }

// SetPooling enables or disables the default pool, returning the previous
// setting. With pooling disabled Get degrades to New and Put discards — it
// stays because a run that never recycles a buffer is the only reference the
// pooled-vs-unpooled bitwise tests can compare the arena against.
func SetPooling(on bool) bool {
	return poolingOn.Swap(on)
}

// Get returns a zeroed tensor from the default pool (or New when pooling is
// disabled).
func Get(shape ...int) *Tensor {
	if !poolingOn.Load() {
		return New(shape...)
	}
	return defaultPool.Get(shape...)
}

// GetUninit returns a tensor with undefined contents from the default pool
// (or a zeroed New when pooling is disabled). Callers must fully overwrite.
func GetUninit(shape ...int) *Tensor {
	if !poolingOn.Load() {
		return New(shape...)
	}
	return defaultPool.GetUninit(shape...)
}

// GetClone returns a deep copy of t backed by the default pool.
func GetClone(t *Tensor) *Tensor {
	out := GetUninit(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Put retires tensors into the default pool (a no-op when pooling is
// disabled). See Pool.Put for the ownership rules.
func Put(ts ...*Tensor) {
	if !poolingOn.Load() {
		return
	}
	defaultPool.Put(ts...)
}

// GetTag returns a zeroed tensor from the default pool with the traffic
// attributed to tag. With pooling disabled it degrades to New and the tag
// counters stay untouched (so Gets == Puts still holds trivially).
func GetTag(tag string, shape ...int) *Tensor {
	if !poolingOn.Load() {
		return New(shape...)
	}
	return defaultPool.GetTag(tag, shape...)
}

// GetUninitTag returns an uninitialized tensor from the default pool with
// the traffic attributed to tag. Callers must fully overwrite.
func GetUninitTag(tag string, shape ...int) *Tensor {
	if !poolingOn.Load() {
		return New(shape...)
	}
	return defaultPool.GetUninitTag(tag, shape...)
}

// PutTag retires tensors into the default pool with the traffic attributed
// to tag (a no-op when pooling is disabled).
func PutTag(tag string, ts ...*Tensor) {
	if !poolingOn.Load() {
		return
	}
	defaultPool.PutTag(tag, ts...)
}

// DefaultPoolStats returns the default pool's counters.
func DefaultPoolStats() PoolStats { return defaultPool.Stats() }

// DefaultPoolTagStats returns the default pool's per-tag counters.
func DefaultPoolTagStats() map[string]PoolStats { return defaultPool.TagStats() }

// ResetDefaultPool drops the default pool's retired tensors and counters.
func ResetDefaultPool() { defaultPool.Reset() }
