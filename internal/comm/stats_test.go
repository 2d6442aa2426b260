package comm

import (
	"fmt"
	"sync"
	"testing"

	"llama4d/internal/tensor"
)

// closedForm is the closed-form per-rank issue volume of every collective,
// mirroring the ring-algorithm cost model of §5.2: all-gather moves (n−1)/n
// of the full tensor per rank (issued here as len·4·(n−1) since len is the
// local contribution), reduce-scatter (n−1)/n of the input, all-reduce twice
// that, and root-rooted ops the full tensor at the root only.
func closedForm(op string, n, elems int, root bool) int64 {
	b := int64(elems) * 4
	switch op {
	case "allgather":
		return b * int64(n-1)
	case "reducescatter":
		return b * int64(n-1) / int64(n)
	case "allreduce", "allreducemax":
		return b * 2 * int64(n-1) / int64(n)
	case "broadcast":
		if root {
			return b
		}
		return 0
	case "barrier":
		return 0
	}
	panic("unknown op " + op)
}

// TestStatsClosedFormVolumes drives every collective across a grid of group
// sizes and tensor shapes and asserts the per-(group, op) byte/message totals
// a Meter receives against the closed-form volumes.
// Group size 3 exercises the truncating integer division (a 1-float
// all-reduce over 3 ranks is 16/3 → 5 bytes, not 5.33).
func TestStatsClosedFormVolumes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		for _, shape := range [][2]int{{1, 1}, {n, 3}, {2 * n, 5}} {
			rows, cols := shape[0], shape[1]
			t.Run(fmt.Sprintf("n%d_%dx%d", n, rows, cols), func(t *testing.T) {
				w := NewWorld(n)
				m := newRecordingMeter()
				w.Meter = m
				g := w.NewGroup(rankRange(n))
				g.Label = "grid"
				elems := rows * cols

				// Each entry: op name, per-rank tensor elems, whether only
				// the root contributes bytes.
				type call struct {
					op     string
					rooted bool
					run    func(rank int)
				}
				calls := []call{
					{"allgather", false, func(r int) { g.AllGather(r, filled(rows, cols, r)) }},
					{"allgather", false, func(r int) { g.AllGatherCols(r, filled(rows, cols, r)) }},
					{"reducescatter", false, func(r int) { g.ReduceScatter(r, filled(n*rows, cols, r)) }},
					{"allreduce", false, func(r int) { g.AllReduce(r, filled(rows, cols, r)) }},
					{"allreducemax", false, func(r int) { g.AllReduceMax(r, filled(rows, cols, r)) }},
					{"broadcast", true, func(r int) {
						var x *tensor.Tensor
						if g.LocalRank(r) == 0 {
							x = filled(rows, cols, r)
						}
						g.Broadcast(r, 0, x)
					}},
					{"barrier", false, func(r int) { g.Barrier(r) }},
				}

				want := map[OpKey]opStats{}
				for _, c := range calls {
					k := OpKey{Group: "grid", Op: c.op}
					e := want[k]
					celems := elems
					if c.op == "reducescatter" {
						celems = n * elems
					}
					for lr := 0; lr < n; lr++ {
						e.Msgs++
						e.Bytes += closedForm(c.op, n, celems, !c.rooted || lr == 0)
					}
					want[k] = e
					if err := w.RunSPMD(func(rank int) { c.run(rank) }); err != nil {
						t.Fatalf("%s: %v", c.op, err)
					}
				}

				got := m.total()
				if len(got) != len(want) {
					t.Errorf("got %d (group, op) entries, want %d", len(got), len(want))
				}
				for k, wv := range want {
					if gv := got[k]; gv != wv {
						t.Errorf("%v: got %+v, want %+v", k, gv, wv)
					}
				}
			})
		}
	}
}

// TestStatsP2PVolumes covers the point-to-point side: send and recv each
// count the full tensor once on their own rank.
func TestStatsP2PVolumes(t *testing.T) {
	w := NewWorld(2)
	m := newRecordingMeter()
	w.Meter = m
	const elems = 6
	err := w.RunSPMD(func(rank int) {
		if rank == 0 {
			w.Send(0, 1, 1, filled(2, 3, 0))
		} else {
			w.Recv(1, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := opStats{Bytes: elems * 4, Msgs: 1}
	if v := m.byRank[0][OpKey{Group: "p2p", Op: "send"}]; v != want {
		t.Errorf("send on rank 0: got %+v, want %+v", v, want)
	}
	if v := m.byRank[1][OpKey{Group: "p2p", Op: "recv"}]; v != want {
		t.Errorf("recv on rank 1: got %+v, want %+v", v, want)
	}
}

// TestMeterReceivesPerRankVolumes checks the Meter hook observes each issue
// on the rank that made it.
func TestMeterReceivesPerRankVolumes(t *testing.T) {
	w := NewWorld(3)
	rec := newRecordingMeter()
	w.Meter = rec
	g := w.NewGroup(rankRange(3))
	g.Label = "m"
	if err := w.RunSPMD(func(rank int) { g.AllReduce(rank, filled(1, 1, rank)) }); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		got := rec.byRank[rank][OpKey{Group: "m", Op: "allreduce"}]
		want := opStats{Bytes: closedForm("allreduce", 3, 1, true), Msgs: 1}
		if got != want {
			t.Errorf("rank %d: got %+v, want %+v", rank, got, want)
		}
	}
	if rec.byRank[0][OpKey{Group: "m", Op: "allreduce"}].Bytes != 5 {
		t.Errorf("1-float all-reduce over 3 ranks should truncate 16/3 to 5 bytes")
	}
}

// opStats is the accumulated volume of one (group, op) pair.
type opStats struct {
	Bytes int64 // closed-form collective volume (ring algorithms), summed over issues
	Msgs  int64 // number of per-rank operation issues
}

// recordingMeter is the tests' Meter: per-rank (group, op) totals behind one
// mutex.
type recordingMeter struct {
	mu     sync.Mutex
	byRank map[int]map[OpKey]opStats
}

func newRecordingMeter() *recordingMeter {
	return &recordingMeter{byRank: make(map[int]map[OpKey]opStats)}
}

func (m *recordingMeter) RecordOp(rank int, group, op string, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byRank[rank] == nil {
		m.byRank[rank] = make(map[OpKey]opStats)
	}
	k := OpKey{Group: group, Op: op}
	e := m.byRank[rank][k]
	e.Bytes += bytes
	e.Msgs++
	m.byRank[rank][k] = e
}

// total sums the per-rank breakdown over ranks: a size-n all-reduce appears n
// times (once per member rank), each with the full ring volume.
func (m *recordingMeter) total() map[OpKey]opStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[OpKey]opStats)
	for _, ops := range m.byRank {
		for k, v := range ops {
			e := out[k]
			e.Bytes += v.Bytes
			e.Msgs += v.Msgs
			out[k] = e
		}
	}
	return out
}

func rankRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func filled(rows, cols, seed int) *tensor.Tensor {
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = float32(seed + i)
	}
	return x
}
