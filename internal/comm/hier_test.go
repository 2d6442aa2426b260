package comm_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"llama4d/internal/comm"
	"llama4d/internal/metrics"
	"llama4d/internal/metrics/xval"
	"llama4d/internal/tensor"
	"llama4d/internal/testutil"
)

// volumeMeter captures per-rank (op → volume) accounting, keyed without the
// group label (each test world runs exactly one group).
type volumeMeter struct {
	mu     sync.Mutex
	byRank []map[string]metrics.OpVolume
}

func newVolumeMeter(worldSize int) *volumeMeter {
	return &volumeMeter{byRank: make([]map[string]metrics.OpVolume, worldSize)}
}

func (m *volumeMeter) RecordOp(rank int, group, op string, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byRank[rank] == nil {
		m.byRank[rank] = make(map[string]metrics.OpVolume)
	}
	v := m.byRank[rank][op]
	v.Bytes += bytes
	v.Msgs++
	m.byRank[rank][op] = v
}

// mixedContrib builds a deterministic contribution whose entries span many
// float32 exponents, so any change in accumulation order changes bits.
func mixedContrib(member, rows, cols int, seed int) *tensor.Tensor {
	x := tensor.New(rows, cols)
	for i := range x.Data {
		v := math.Sin(float64(member*2654435761 + i*40503 + seed))
		x.Data[i] = float32(v) * float32(math.Exp2(float64((member+i)%13-6)))
	}
	return x
}

// runCollective executes one collective over the group on its world and
// returns the per-member results. Ranks outside the group idle.
func runCollective(t *testing.T, w *comm.World, g *comm.Group, op string, rows, cols int) []*tensor.Tensor {
	t.Helper()
	out := make([]*tensor.Tensor, g.Size())
	err := w.RunSPMD(func(rank int) {
		if !g.Contains(rank) {
			return
		}
		lr := g.LocalRank(rank)
		var res *tensor.Tensor
		switch op {
		case "allgather":
			res = g.AllGather(rank, mixedContrib(lr, rows, cols, 1))
		case "reducescatter":
			res = g.ReduceScatter(rank, mixedContrib(lr, rows, cols, 2))
		case "allreduce":
			res = g.AllReduce(rank, mixedContrib(lr, rows, cols, 3))
		case "broadcast":
			var x *tensor.Tensor
			if lr == 0 {
				x = mixedContrib(lr, rows, cols, 4)
			}
			res = g.Broadcast(rank, 0, x)
		default:
			panic("unknown op " + op)
		}
		out[lr] = res
	})
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return out
}

func strideRanks(world, stride int) []int {
	var out []int
	for r := 0; r < world; r += stride {
		out = append(out, r)
	}
	return out
}

// TestHierarchicalMatchesFlatBitwise is the large-world conformance grid:
// world ∈ {8, 64, 256, 1024} plus ragged-last-host worlds, host size ∈
// {2, 4, 8}, all four hierarchical collectives, over both the full world and
// a strided sub-group that straddles hosts. For every cell it runs the op on
// a flat world (the oracle) and on a topology world, asserting (a) every
// member's result is Float32bits-identical across transports and (b) each
// member's metered byte/message volumes equal xval's independent closed-form
// prediction exactly — tiered on the topology world, flat on the oracle.
func TestHierarchicalMatchesFlatBitwise(t *testing.T) {
	worlds := []int{8, 64, 256, 1024, 6, 58, 250, 1021}
	for _, world := range worlds {
		if testutil.RaceEnabled && world > 256 {
			// The -race storm test covers the thousand-rank path; the full
			// grid would multiply the detector's goroutine cost ~50×.
			continue
		}
		for _, hostSize := range []int{2, 4, 8} {
			for _, groups := range []struct {
				name   string
				stride int
			}{{"full", 1}, {"stride3", 3}} {
				ranks := strideRanks(world, groups.stride)
				n := len(ranks)
				if n < 2 {
					continue
				}
				for _, op := range []string{"allgather", "reducescatter", "allreduce", "broadcast"} {
					name := fmt.Sprintf("world=%d/host=%d/%s/%s", world, hostSize, groups.name, op)
					t.Run(name, func(t *testing.T) {
						rows, cols := 2, 1
						if op == "reducescatter" {
							rows = n // rows must divide by group size
						}
						elems := int64(rows * cols)

						flatW := comm.NewWorld(world)
						flatM := newVolumeMeter(world)
						flatW.Meter = flatM
						flatG := flatW.NewGroup(ranks)
						flatG.Label = "grid"

						hierW := comm.NewWorld(world)
						hierW.Topo = comm.Topology{HostSize: hostSize}
						hierM := newVolumeMeter(world)
						hierW.Meter = hierM
						hierG := hierW.NewGroup(ranks)
						hierG.Label = "grid"

						flatRes := runCollective(t, flatW, flatG, op, rows, cols)
						hierRes := runCollective(t, hierW, hierG, op, rows, cols)

						for lr := 0; lr < n; lr++ {
							f, h := flatRes[lr], hierRes[lr]
							if !f.SameShape(h) {
								t.Fatalf("member %d: shape %v vs %v", lr, f.Shape, h.Shape)
							}
							for i := range f.Data {
								if math.Float32bits(f.Data[i]) != math.Float32bits(h.Data[i]) {
									t.Fatalf("member %d elem %d: flat %x hier %x",
										lr, i, math.Float32bits(f.Data[i]), math.Float32bits(h.Data[i]))
								}
							}
						}

						wantHier := xval.PredictCollective(ranks, hostSize, op, elems)
						wantFlat := xval.PredictCollective(ranks, 0, op, elems)
						for lr, r := range ranks {
							assertVolumes(t, "hier", lr, hierM.byRank[r], wantHier[lr])
							assertVolumes(t, "flat", lr, flatM.byRank[r], wantFlat[lr])
						}
					})
				}
			}
		}
	}
}

func assertVolumes(t *testing.T, impl string, lr int, got, want map[string]metrics.OpVolume) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s member %d: got %d op entries %v, want %d %v", impl, lr, len(got), got, len(want), want)
	}
	for k, wv := range want {
		if gv := got[k]; gv != wv {
			t.Errorf("%s member %d %s: got %+v, want %+v", impl, lr, k, gv, wv)
		}
	}
}

// TestFlatOracleIsAWorldValue pins where the flat oracle lives: not behind a
// process toggle but in a world's own Topology. The same group on a
// HostSize-0 world meters flat volumes matching the flat prediction, on a
// HostSize-4 world it meters the tiered keys, and both produce the same bits.
func TestFlatOracleIsAWorldValue(t *testing.T) {
	const world = 16
	ranks := strideRanks(world, 1)
	run := func(hostSize int) ([]*tensor.Tensor, *volumeMeter) {
		w := comm.NewWorld(world)
		w.Topo = comm.Topology{HostSize: hostSize}
		m := newVolumeMeter(world)
		w.Meter = m
		g := w.NewGroup(ranks)
		g.Label = "grid"
		return runCollective(t, w, g, "allreduce", 2, 1), m
	}
	flat, flatM := run(0)
	hier, hierM := run(4)
	wantFlat := xval.PredictCollective(ranks, 0, "allreduce", 2)
	wantHier := xval.PredictCollective(ranks, 4, "allreduce", 2)
	for lr, r := range ranks {
		assertVolumes(t, "flat", lr, flatM.byRank[r], wantFlat[lr])
		assertVolumes(t, "hier", lr, hierM.byRank[r], wantHier[lr])
		if _, tiered := flatM.byRank[r]["allreduce.intra"]; tiered {
			t.Fatalf("rank %d metered tiered keys on a world without hosts", r)
		}
		if _, tiered := hierM.byRank[r]["allreduce.intra"]; !tiered {
			t.Fatalf("rank %d missing tiered keys on a HostSize-4 world", r)
		}
		if !tensor.BitwiseEqual(flat[lr], hier[lr]) {
			t.Fatalf("member %d: hierarchical result differs from the flat oracle", lr)
		}
	}
}

// TestHierarchicalDeadline checks the failure detector reaches through the
// two-level path: a rank that never arrives intra-host must surface as a
// typed DeadlineError on the survivors, not a hang.
func TestHierarchicalDeadline(t *testing.T) {
	const world, hostSize = 8, 4
	w := comm.NewWorld(world)
	w.Topo = comm.Topology{HostSize: hostSize}
	w.Timeout = 50 * time.Millisecond
	g := w.NewGroup(strideRanks(world, 1))
	g.Label = "grid"
	err := w.RunSPMD(func(rank int) {
		if rank == 3 {
			return // never arrives
		}
		g.AllReduce(rank, mixedContrib(rank, 2, 1, 9))
	})
	var de *comm.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
}
