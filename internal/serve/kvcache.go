// Package serve is the inference half of the repository: a forward-only
// serving engine built on the trained stack. It combines a paged KV-cache
// drawn from the tensor arena (vLLM-style fixed-size token-block pages with
// per-sequence page tables), a continuous-batching scheduler that admits
// concurrent request streams and splits prefill from decode, and
// tensor-parallel decode over internal/comm with the handle-based
// nonblocking all-reduce overlapping chunked decode compute.
//
// The subsystem inherits the repo's §6.2 determinism contract: batched
// incremental decode through the paged cache produces Float32bits-identical
// logits to a single-sequence dense full-forward oracle at every generated
// position (see engine.go for the argument, DESIGN.md §4f for the spec).
package serve

import (
	"fmt"

	"llama4d/internal/tensor"
)

// KVPoolTag labels the KV-cache's page traffic in the tensor arena, keeping
// it distinguishable from the rest of the world's Get/Put churn
// (tensor.DefaultPoolTagStats, surfaced in the metrics table).
const KVPoolTag = "kv"

// Page is one fixed-size block of KV storage: PageSize token slots for one
// layer's local K and V projections ([PageSize, nKVLocal·headDim] each).
// Under tensor parallelism each rank's cache holds only its own KV-head
// shard, so pages shrink with the TP degree exactly like the weights.
type Page struct {
	K, V *tensor.Tensor
}

// PageAllocator leases pages against a fixed budget, drawing the frames
// from the default tensor pool under KVPoolTag and returning them on Free.
// The leased set makes double-assignment structurally impossible (a page
// object exists in exactly one page table between Alloc and Free) and turns
// double-free into a panic instead of silent state corruption.
type PageAllocator struct {
	pageSize, width, budget int
	leased                  map[*Page]struct{}
}

// NewPageAllocator creates an allocator for pages of pageSize token slots
// by width columns, with at most budget pages leased at once.
func NewPageAllocator(pageSize, width, budget int) *PageAllocator {
	if pageSize <= 0 || width <= 0 || budget <= 0 {
		panic(fmt.Sprintf("serve: invalid allocator (pageSize=%d width=%d budget=%d)", pageSize, width, budget))
	}
	return &PageAllocator{pageSize: pageSize, width: width, budget: budget, leased: make(map[*Page]struct{})}
}

// Alloc leases one page, or reports failure when the budget is exhausted —
// the backpressure signal the scheduler turns into admission stalls and
// preemption.
func (a *PageAllocator) Alloc() (*Page, bool) {
	if len(a.leased) >= a.budget {
		return nil, false
	}
	p := &Page{
		K: tensor.GetUninitTag(KVPoolTag, a.pageSize, a.width),
		V: tensor.GetUninitTag(KVPoolTag, a.pageSize, a.width),
	}
	a.leased[p] = struct{}{}
	return p, true
}

// Free returns a leased page's frames to the pool. Freeing a page the
// allocator does not consider leased (double-free, foreign page) panics.
func (a *PageAllocator) Free(p *Page) {
	if _, ok := a.leased[p]; !ok {
		panic("serve: Free of a page that is not leased")
	}
	delete(a.leased, p)
	tensor.PutTag(KVPoolTag, p.K, p.V)
	p.K, p.V = nil, nil
}

// Leased returns the number of pages currently out.
func (a *PageAllocator) Leased() int { return len(a.leased) }

// Budget returns the page budget.
func (a *PageAllocator) Budget() int { return a.budget }

// Seq is one sequence's view of the cache: a per-layer page table plus the
// used/reserved token counters. All layers advance together — a token's KV
// occupies the same slot index in every layer's pages.
type Seq struct {
	pages    [][]*Page // [layer][page index]
	used     int       // tokens whose KV is committed (Advance)
	reserved int       // token capacity backed by leased pages
	released bool
}

// Used returns the number of committed tokens.
func (s *Seq) Used() int { return s.used }

// KVCache is the paged KV store of one rank's engine: Layers page tables
// per sequence over a shared PageAllocator.
type KVCache struct {
	Layers   int
	PageSize int
	Width    int // nKVLocal · headDim
	Alloc    *PageAllocator
}

// NewKVCache creates a paged cache for layers transformer layers with the
// given page geometry and a budget of budgetPages pages (counting every
// layer's pages against one shared budget).
func NewKVCache(layers, pageSize, width, budgetPages int) *KVCache {
	return &KVCache{
		Layers:   layers,
		PageSize: pageSize,
		Width:    width,
		Alloc:    NewPageAllocator(pageSize, width, budgetPages),
	}
}

// NewSeq creates an empty sequence with no pages leased.
func (c *KVCache) NewSeq() *Seq {
	return &Seq{pages: make([][]*Page, c.Layers)}
}

// PagesForTokens returns the total page count (across layers) needed to
// hold n tokens — the admission-time feasibility check.
func (c *KVCache) PagesForTokens(n int) int {
	return c.Layers * ((n + c.PageSize - 1) / c.PageSize)
}

// Reserve ensures capacity for n tokens beyond the committed count,
// leasing pages for every layer as needed. The reservation is
// all-or-nothing: on budget exhaustion any pages leased by this call are
// returned and the cache is left exactly as found.
func (c *KVCache) Reserve(s *Seq, n int) bool {
	if s.released {
		panic("serve: Reserve on released sequence")
	}
	reserved0 := s.reserved
	var fresh []*Page
	rollback := func() {
		for _, p := range fresh {
			c.Alloc.Free(p)
		}
		for l := range s.pages {
			s.pages[l] = s.pages[l][:reserved0/c.PageSize]
		}
		s.reserved = reserved0
	}
	for s.reserved < s.used+n {
		for l := 0; l < c.Layers; l++ {
			p, ok := c.Alloc.Alloc()
			if !ok {
				rollback()
				return false
			}
			fresh = append(fresh, p)
			s.pages[l] = append(s.pages[l], p)
		}
		s.reserved += c.PageSize
	}
	return true
}

// Append writes source rows [lo, hi) of the layer's K and V projections
// into the sequence's pages at token slots used, used+1, … — staging KV for
// tokens that Advance commits once every layer has appended (the per-layer
// decode loop appends layer l's rows before layer l's attention reads
// them).
func (c *KVCache) Append(s *Seq, layer int, k, v *tensor.Tensor, lo, hi int) {
	if s.used+(hi-lo) > s.reserved {
		panic(fmt.Sprintf("serve: Append of %d tokens beyond reservation (used=%d reserved=%d)", hi-lo, s.used, s.reserved))
	}
	for r := lo; r < hi; r++ {
		slot := s.used + (r - lo)
		page := s.pages[layer][slot/c.PageSize]
		row := slot % c.PageSize
		copy(page.K.Row(row), k.Row(r))
		copy(page.V.Row(row), v.Row(r))
	}
}

// Advance commits n staged tokens. It panics if the commit would run past
// the reservation — the invariant the scheduler's Reserve-before-decode
// protocol maintains.
func (c *KVCache) Advance(s *Seq, n int) {
	if s.used+n > s.reserved {
		panic(fmt.Sprintf("serve: Advance(%d) beyond reservation (used=%d reserved=%d)", n, s.used, s.reserved))
	}
	s.used += n
}

// Gather copies token slots [0, n) of one layer into contiguous [n, Width]
// destinations — the contiguous K/V views the attention kernel consumes.
// n may exceed the committed count by the rows staged via Append but not
// yet advanced (the decode path gathers used+1 rows).
func (c *KVCache) Gather(s *Seq, layer, n int, kDst, vDst *tensor.Tensor) {
	if n > s.reserved {
		panic(fmt.Sprintf("serve: Gather of %d tokens beyond reservation %d", n, s.reserved))
	}
	for slot := 0; slot < n; slot++ {
		page := s.pages[layer][slot/c.PageSize]
		row := slot % c.PageSize
		copy(kDst.Row(slot), page.K.Row(row))
		copy(vDst.Row(slot), page.V.Row(row))
	}
}

// Release frees every page of the sequence (completion or preemption). The
// sequence object must not be used afterwards; preempted sequences get a
// fresh Seq on re-admission.
func (c *KVCache) Release(s *Seq) {
	if s.released {
		panic("serve: double Release")
	}
	for l := range s.pages {
		for _, p := range s.pages[l] {
			c.Alloc.Free(p)
		}
		s.pages[l] = nil
	}
	s.used, s.reserved = 0, 0
	s.released = true
}
