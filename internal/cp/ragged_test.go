package cp

import (
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/balance"
	"llama4d/internal/tensor"
)

func TestRaggedShardingValidates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	// Unequal shard sizes are fine as long as the partition is exact.
	NewRaggedSharding(6, [][]int{{0, 3, 5}, {1}, {2, 4}})
	mustPanic("duplicate row", func() { NewRaggedSharding(4, [][]int{{0, 1}, {1, 3}}) })
	mustPanic("missing row", func() { NewRaggedSharding(4, [][]int{{0, 1}, {3}}) })
	mustPanic("unsorted shard", func() { NewRaggedSharding(4, [][]int{{1, 0}, {2, 3}}) })
	mustPanic("out of range", func() { NewRaggedSharding(4, [][]int{{0, 1}, {2, 4}}) })
}

func TestZigzagRaggedMatchesSharding(t *testing.T) {
	sh := NewSharding(24, 3)
	rs := ZigzagRagged(sh)
	for lr := 0; lr < 3; lr++ {
		want := sh.LocalPositions(lr)
		got := rs.LocalPositions(lr)
		if len(got) != len(want) {
			t.Fatalf("rank %d: %d rows, want %d", lr, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d row %d: %d, want %d", lr, i, got[i], want[i])
			}
		}
	}
}

// TestRaggedGatherReassembles: the offset-based all-gather reconstructs the
// full-sequence tensor bit for bit from unequal per-rank chunks, and the
// gradient reduction returns exactly the local rows of the group all-reduce.
func TestRaggedGatherReassembles(t *testing.T) {
	const seq, cpSize, d = 12, 3, 4
	rs := NewRaggedSharding(seq, [][]int{{0, 2, 4, 6, 8, 10, 11}, {1, 5}, {3, 7, 9}})
	rng := rand.New(rand.NewSource(3))
	full := tensor.RandN(rng, 1, seq, d)
	grads := make([]*tensor.Tensor, cpSize)
	for r := range grads {
		grads[r] = tensor.RandN(rng, 1, seq, d)
	}
	w, group := newCPWorld(cpSize)
	if err := w.RunSPMD(func(rank int) {
		kv := Env(rs, attention.Causal{}, group, rank).KV
		local := LocalRows(rs, full, rank)
		gk, gv := kv.GatherKV(local, local)
		for _, g := range []*tensor.Tensor{gk, gv} {
			for i := range full.Data {
				if math.Float32bits(g.Data[i]) != math.Float32bits(full.Data[i]) {
					panic("gathered tensor differs from source")
				}
			}
		}
		want := LocalRows(rs, group.AllReduce(rank, grads[rank]), rank)
		got, _ := kv.ReduceKVGrad(grads[rank], grads[rank])
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				panic("reduced gradient rows differ from all-reduce selection")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRaggedBitwiseVsEvenBaseline is the satellite property test: for every
// mask type × shard layout, each rank's attention forward rows and dQ rows
// under a ragged sharding are Float32bits-identical to the dense
// full-sequence oracle's rows at the same positions. The even zigzag
// baseline satisfies the same identity (it is one of the layouts), so every
// ragged layout is bitwise identical to the even-shard baseline row for row
// — the "which rank computes a row is invisible" contract that lets the
// planner choose shards freely. Runs at the default tile geometry and at a
// fine one that exercises empty-tile skipping on shard-shaped grids.
func TestRaggedBitwiseVsEvenBaseline(t *testing.T) {
	const seq, cpSize, d = 48, 4, 8
	rng := rand.New(rand.NewSource(7))
	q := tensor.RandN(rng, 1, seq, d)
	k := tensor.RandN(rng, 1, seq, d)
	v := tensor.RandN(rng, 1, seq, d)
	dO := tensor.RandN(rng, 1, seq, d)

	docIDs := attention.DocIDsFromLengths([]int{20, 3, 9, 1, 7, 8}, seq)
	starts := attention.DocStarts(docIDs)
	masks := map[string]attention.Mask{
		"causal":   attention.Causal{},
		"document": attention.Document{DocID: docIDs},
		"full":     attention.Full{},
	}

	layouts := map[string]RaggedSharding{
		"zigzag": ZigzagRagged(NewSharding(seq, cpSize)),
		"contiguous": NewRaggedSharding(seq, [][]int{
			iotaFrom(0, 12), iotaFrom(12, 12), iotaFrom(24, 12), iotaFrom(36, 12),
		}),
		"planned": NewRaggedSharding(seq, balance.PlanShards(starts, seq, cpSize)),
		"unequal": NewRaggedSharding(seq, [][]int{
			iotaFrom(0, 20), iotaFrom(20, 4), iotaFrom(24, 15), iotaFrom(39, 9),
		}),
	}

	for _, tiling := range [][2]int{{64, 64}, {8, 8}} {
		pr, pc := attention.SetTiling(tiling[0], tiling[1])
		for mname, mask := range masks {
			oracle := attention.Forward(q, k, v, mask, attention.Iota(seq), 0)
			oDQ, _, _ := attention.Backward(q, k, v, oracle.P, dO, mask, attention.Iota(seq), 0)
			for lname, rs := range layouts {
				for lr := 0; lr < cpSize; lr++ {
					pos := rs.LocalPositions(lr)
					ql := LocalRows(rs, q, lr)
					dOl := LocalRows(rs, dO, lr)
					out := attention.Forward(ql, k, v, mask, pos, 0)
					dq, _, _ := attention.Backward(ql, k, v, out.P, dOl, mask, pos, 0)
					for i, p := range pos {
						for c := 0; c < d; c++ {
							if math.Float32bits(out.O.Row(i)[c]) != math.Float32bits(oracle.O.Row(p)[c]) {
								t.Fatalf("tiling %v mask %s layout %s rank %d: forward row %d differs from dense oracle",
									tiling, mname, lname, lr, p)
							}
							if math.Float32bits(dq.Row(i)[c]) != math.Float32bits(oDQ.Row(p)[c]) {
								t.Fatalf("tiling %v mask %s layout %s rank %d: dQ row %d differs from dense oracle",
									tiling, mname, lname, lr, p)
							}
						}
					}
				}
			}
		}
		attention.SetTiling(pr, pc)
	}
}

func iotaFrom(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}
