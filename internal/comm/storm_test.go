package comm

import (
	"math"
	"testing"

	"llama4d/internal/tensor"
)

// TestAllReduceStorm1024 pins the sharded-rendezvous path at the paper's
// node scale under maximum contention: 1,024 goroutine ranks (hosts of 8)
// drive several back-to-back all-reduce rounds on two overlapping groups —
// the full world and the rank's parity half — so host rendezvous, carrier
// escalation, and slot retirement all run concurrently across groups and
// sequence numbers. Run under `go test -race` (make race) this is the data-
// race gate for the lock-free deposit/arrival protocol; results are checked
// bitwise against a sequential local-rank-order reference. Guarded by
// -short so quick iteration loops skip the goroutine storm.
func TestAllReduceStorm1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-rank storm skipped in -short mode")
	}
	const (
		world    = 1024
		hostSize = 8
		elems    = 64
		rounds   = 3
	)
	w := NewWorld(world)
	w.Topo = Topology{HostSize: hostSize}
	full := w.NewGroup(rankRange(world))
	full.Label = "world"
	parity := make([]*Group, 2)
	for p := 0; p < 2; p++ {
		ranks := make([]int, 0, world/2)
		for r := p; r < world; r += 2 {
			ranks = append(ranks, r)
		}
		parity[p] = w.NewGroup(ranks)
		parity[p].Label = "parity"
	}

	contrib := func(rank, round, salt int) *tensor.Tensor {
		x := tensor.New(elems)
		for i := range x.Data {
			v := math.Sin(float64(rank*40503 + i*2654435761 + round*97 + salt))
			x.Data[i] = float32(v) * float32(math.Exp2(float64((rank+i+round)%11-5)))
		}
		return x
	}
	// Sequential references, accumulated in local-rank order — the contract
	// every transport must reproduce bit for bit.
	ref := func(ranks []int, round, salt int) *tensor.Tensor {
		sum := contrib(ranks[0], round, salt).Clone()
		for _, r := range ranks[1:] {
			sum.Add(contrib(r, round, salt))
		}
		return sum
	}
	wantFull := make([]*tensor.Tensor, rounds)
	wantPar := [2][]*tensor.Tensor{}
	for round := 0; round < rounds; round++ {
		wantFull[round] = ref(full.Ranks(), round, 1)
		for p := 0; p < 2; p++ {
			wantPar[p] = append(wantPar[p], ref(parity[p].Ranks(), round, 2))
		}
	}

	check := func(rank int, got, want *tensor.Tensor) {
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Errorf("rank %d elem %d: got %x want %x",
					rank, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				return
			}
		}
	}
	err := w.RunSPMD(func(rank int) {
		for round := 0; round < rounds; round++ {
			check(rank, full.AllReduce(rank, contrib(rank, round, 1)), wantFull[round])
			p := rank % 2
			check(rank, parity[p].AllReduce(rank, contrib(rank, round, 2)), wantPar[p][round])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveStagingPoolBalance is the staging-leak regression test: the
// "coll" arena tag must end every healthy run balanced — each staged Get
// returned by a Put the moment its combine consumed it, none rejected. It
// drives both transports (flat and hierarchical worlds), blocking and
// nonblocking issues (the destination forms included), and asserts on the
// tag's Gets/Puts delta.
func TestCollectiveStagingPoolBalance(t *testing.T) {
	before := tensor.DefaultPoolTagStats()[collTag]

	run := func(hostSize int) {
		const world = 16
		w := NewWorld(world)
		w.Topo = Topology{HostSize: hostSize}
		g := w.NewGroup(rankRange(world))
		g.Label = "pool"
		if err := w.RunSPMD(func(rank int) {
			g.AllReduce(rank, filled(2, 3, rank))
			g.AllGather(rank, filled(2, 3, rank))
			g.ReduceScatter(rank, filled(world, 3, rank))
			var x *tensor.Tensor
			if rank == 0 {
				x = filled(2, 3, rank)
			}
			g.Broadcast(rank, 0, x)
			g.Barrier(rank) // zero-length contribs bypass staging
			h := g.IAllReduce(rank, filled(2, 3, rank))
			h.Wait()
			g.IAllGather(rank, filled(2, 3, rank), tensor.New(world*2, 3)).Wait()
			g.IReduceScatter(rank, filled(world, 3, rank), tensor.New(1, 3)).Wait()
		}); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // flat transport
	run(4) // hierarchical transport

	after := tensor.DefaultPoolTagStats()[collTag]
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets == 0 {
		t.Fatal("no staged collective traffic recorded under the coll tag")
	}
	if gets != puts {
		t.Fatalf("staging leak: %d gets vs %d puts on the coll tag", gets, puts)
	}
	if rej := after.Rejects - before.Rejects; rej != 0 {
		t.Fatalf("%d staged buffers rejected by the pool's view guard", rej)
	}
}
