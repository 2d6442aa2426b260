package cp

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/tensor"
)

// Two ring exchanges in flight on one world would collide if they shared
// tags: rank A's step-t block from instance 1 could satisfy rank B's step-t
// receive of instance 2. Per-slot tag namespaces prevent that; this test runs
// two exchangers concurrently per rank and checks both assemble their own
// K/V.
func TestConcurrentKVDisjointTags(t *testing.T) {
	seq, cols, cpSize := 32, 16, 4
	rng := rand.New(rand.NewSource(22))
	ka := tensor.RandN(rng, 0.5, seq, cols)
	va := tensor.RandN(rng, 0.5, seq, cols)
	kb := tensor.RandN(rng, 0.5, seq, cols)
	vb := tensor.RandN(rng, 0.5, seq, cols)
	layout := NewSharding(seq, cpSize)

	w, g := newCPWorld(cpSize)
	if err := w.RunSPMD(func(rank int) {
		check := func(k, v *tensor.Tensor, slot int) {
			kv := NewKV(layout, ringPlan(seq), g, rank, slot)
			fullK, fullV := kv.GatherKV(LocalRows(layout, k, rank), LocalRows(layout, v, rank))
			if !tensor.BitwiseEqual(fullK, k) || !tensor.BitwiseEqual(fullV, v) {
				panic("assembled K/V corrupted under concurrent circulation")
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); check(ka, va, 0) }()
		go func() { defer wg.Done(); check(kb, vb, 1) }()
		wg.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRingTagCeiling pins the guards that keep an instance inside its tag
// namespace: the shapes CheckRingTags rejects (what core.Config.Validate
// surfaces as a typed error before any rank runs), and the exchanger's own
// loud stop at the exchange that would take the first tag of the next slot.
func TestRingTagCeiling(t *testing.T) {
	for _, tc := range []struct {
		name             string
		group, exchanges int
		ok               bool
	}{
		{"at both ceilings", maxRingSteps, maxRingCalls, true},
		{"group too large", maxRingSteps + 1, 1, false},
		{"too many exchanges", 2, maxRingCalls + 1, false},
	} {
		err := CheckRingTags(tc.group, tc.exchanges)
		var tre *TagRangeError
		if (err == nil) != tc.ok || (err != nil && !errors.As(err, &tre)) {
			t.Fatalf("%s: CheckRingTags(%d, %d) = %v", tc.name, tc.group, tc.exchanges, err)
		}
	}

	const seq, cpSize = 8, 2
	layout := NewSharding(seq, cpSize)
	w, g := newCPWorld(cpSize)
	a, b := NewKV(layout, ringPlan(seq), g, 0, 0), NewKV(layout, ringPlan(seq), g, 0, 1)
	if last, next := a.tag(maxRingCalls-1, maxRingSteps-1, 1), b.tag(0, 0, 0); last >= next {
		t.Fatalf("slot 0's last tag %d reaches slot 1's first %d", last, next)
	}
	err := w.RunSPMD(func(rank int) {
		kv := NewKV(layout, ringPlan(seq), g, rank, 0)
		kv.calls = maxRingCalls // every earlier exchange already spent
		x := tensor.New(seq/cpSize, 2)
		kv.GatherKV(x, x)
	})
	var tre *TagRangeError
	if !errors.As(err, &tre) {
		t.Fatalf("exchange past the tag ceiling must stop with a TagRangeError, got %v", err)
	}
}

// TestRingRaggedLayout drives the all-ring plan over arbitrary ragged
// partitions — uneven shard sizes and maximally fragmented runs. Forward and
// backward must match the dense oracle.
func TestRingRaggedLayout(t *testing.T) {
	seq, d, cpSize := 48, 8, 3
	rng := rand.New(rand.NewSource(23))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	dO := tensor.RandN(rng, 0.5, seq, d)

	// Uneven contiguous shards [20, 17, 11] plus a fragmented shard set.
	contig := [][]int{iotaFrom(0, 20), iotaFrom(20, 17), iotaFrom(37, 11)}
	var strided [][]int
	for r := 0; r < cpSize; r++ {
		var p []int
		for i := r; i < seq; i += cpSize {
			p = append(p, i)
		}
		strided = append(strided, p)
	}

	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{13, 21, 14}, seq)},
	}
	for name, mask := range masks {
		out := attention.Forward(q, k, v, mask, attention.Iota(seq), 0)
		wantDQ, wantDK, wantDV := attention.Backward(q, k, v, out.P, dO, mask, attention.Iota(seq), 0)
		for layoutName, parts := range map[string][][]int{"contig": contig, "strided": strided} {
			s := NewRaggedSharding(seq, parts)
			w, g := newCPWorld(cpSize)
			if err := w.RunSPMD(func(rank int) {
				pos := s.LocalPositions(rank)
				o, dq, dk, dv := attendVia(NewKV(s, ringPlan(seq), g, rank, 0),
					packRows(q, pos), packRows(k, pos), packRows(v, pos), packRows(dO, pos), mask)
				if dd := tensor.MaxDiff(o, packRows(out.O, pos)); dd > 1e-4 {
					panic("forward diff too large")
				}
				if dd := tensor.MaxDiff(dq, packRows(wantDQ, pos)); dd > 1e-4 {
					panic("dQ diff too large")
				}
				if dd := tensor.MaxDiff(dk, packRows(wantDK, pos)); dd > 1e-4 {
					panic("dK diff too large")
				}
				if dd := tensor.MaxDiff(dv, packRows(wantDV, pos)); dd > 1e-4 {
					panic("dV diff too large")
				}
			}); err != nil {
				t.Fatalf("%s/%s: %v", name, layoutName, err)
			}
		}
	}
}
