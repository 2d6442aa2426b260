package serve

import (
	"testing"

	"llama4d/internal/tensor"
)

// checkedRunner is stubRunner plus structural invariant sweeps: after every
// engine call it walks the page tables of every sequence it has ever seen and
// asserts no page is assigned to two (sequence, layer, slot) homes and that
// the allocator's leased count equals the tables' total — the invariants the
// fuzz target holds under arbitrary admission/preemption interleavings.
type checkedRunner struct {
	kv   *KVCache
	t    *testing.T
	seen map[*SeqState]struct{}
}

func (r *checkedRunner) observe(seqs []*SeqState) {
	for _, s := range seqs {
		r.seen[s] = struct{}{}
	}
	pages := map[*Page]struct{}{}
	total := 0
	for s := range r.seen {
		c := s.Cache
		if c == nil || c.released {
			continue
		}
		for l := range c.pages {
			for _, p := range c.pages[l] {
				if _, dup := pages[p]; dup {
					r.t.Fatalf("page %p assigned to two homes", p)
				}
				pages[p] = struct{}{}
				total++
			}
		}
	}
	if leased := r.kv.Alloc.Leased(); total != leased {
		r.t.Fatalf("allocator leases %d pages but tables hold %d", leased, total)
	}
}

func (r *checkedRunner) Prefill(seqs []*SeqState) {
	for _, s := range seqs {
		n := len(s.feedTokens())
		if !r.kv.Reserve(s.Cache, n) {
			r.t.Fatalf("prefill reservation failed after scheduler admission")
		}
		r.kv.Advance(s.Cache, n)
		s.Output = append(s.Output, s.Req.ID*1000+len(s.Output))
	}
	r.observe(seqs)
}

func (r *checkedRunner) DecodeStep(seqs []*SeqState) {
	for _, s := range seqs {
		r.kv.Advance(s.Cache, 1)
		s.Output = append(s.Output, s.Req.ID*1000+len(s.Output))
	}
	r.observe(seqs)
}

// FuzzScheduler feeds the continuous-batching scheduler random request mixes
// (arrival ticks, prompt/generation lengths) against random cache geometries
// with the budget clamped just above the largest single request — maximum
// eviction pressure while every request stays individually admissible. For
// every input: all requests complete with their exact token sequence in
// order (preemption may re-prefill but never reorders), no page is ever
// double-assigned, and at drain the allocator holds zero leases with the
// KV-tagged pool traffic balanced (every Get matched by a Put).
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 4, 3, 1, 2, 5, 0, 1, 1, 7})
	f.Add([]byte{1, 4, 2, 9, 5, 5, 0, 1, 1, 3, 3, 2, 6, 2, 4, 1, 1, 0, 5, 5, 2})
	f.Add([]byte{8, 1, 3, 1, 2, 2, 7, 4, 1, 0, 3, 5, 2})
	f.Add([]byte{2, 3, 1, 255, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		pageSize := 1 + int(data[0])%8
		maxBatch := 1 + int(data[1])%4
		layers := 1 + int(data[2])%3
		rest := data[4:]

		var reqs []*Request
		for i := 0; i+2 < len(rest) && len(reqs) < 12; i += 3 {
			reqs = append(reqs, &Request{
				ID:      len(reqs),
				Prompt:  make([]int, 1+int(rest[i])%6),
				MaxNew:  1 + int(rest[i+1])%6,
				Arrival: int(rest[i+2]) % 8,
			})
		}
		if len(reqs) == 0 {
			return
		}
		maxNeed := 0
		for _, r := range reqs {
			tokens := len(r.Prompt) + r.MaxNew
			need := layers * ((tokens + pageSize - 1) / pageSize)
			if need > maxNeed {
				maxNeed = need
			}
		}
		// Budget in [maxNeed, 2·maxNeed]: everything fits alone, nothing is
		// guaranteed to fit together.
		budget := maxNeed + int(data[3])%(maxNeed+1)

		kv := NewKVCache(layers, pageSize, 1, budget)
		run := &checkedRunner{kv: kv, t: t, seen: map[*SeqState]struct{}{}}
		s := NewScheduler(kv, run, maxBatch)

		tag0 := tensor.DefaultPoolTagStats()[KVPoolTag]
		if err := s.Submit(reqs...); err != nil {
			t.Fatalf("Submit under budget >= maxNeed: %v", err)
		}
		if err := s.RunToCompletion(); err != nil {
			t.Fatal(err)
		}

		if got := len(s.Completed()); got != len(reqs) {
			t.Fatalf("completed %d of %d requests", got, len(reqs))
		}
		for _, seq := range s.Completed() {
			if len(seq.Output) != seq.Req.MaxNew {
				t.Fatalf("req %d: %d tokens, want %d", seq.Req.ID, len(seq.Output), seq.Req.MaxNew)
			}
			for j, tok := range seq.Output {
				if tok != seq.Req.ID*1000+j {
					t.Fatalf("req %d token %d: got %d, order not preserved", seq.Req.ID, j, tok)
				}
			}
		}
		if leased := kv.Alloc.Leased(); leased != 0 {
			t.Fatalf("%d pages leaked at drain", leased)
		}
		tag1 := tensor.DefaultPoolTagStats()[KVPoolTag]
		if gets, puts := tag1.Gets-tag0.Gets, tag1.Puts-tag0.Puts; gets != puts {
			t.Fatalf("kv pool traffic unbalanced: %d gets, %d puts", gets, puts)
		}
	})
}
