package comm_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"llama4d/internal/comm"
	"llama4d/internal/tensor"
)

const canaryLen = 4

var canaryBits = uint32(0x7fc0dead) // a quiet NaN no collective produces

// canaried returns a destination of the given shape whose backing array
// carries canaryLen NaN-payload canaries on each side, plus a check that
// they are intact. The destination starts from base (nil: zeros).
func canaried(base *tensor.Tensor, shape ...int) (*tensor.Tensor, func() bool) {
	n := 1
	for _, s := range shape {
		n *= s
	}
	buf := make([]float32, n+2*canaryLen)
	for i := range buf {
		buf[i] = math.Float32frombits(canaryBits)
	}
	dst := tensor.FromSlice(buf[canaryLen:canaryLen+n], shape...)
	dst.Zero()
	if base != nil {
		copy(dst.Data, base.Data)
	}
	return dst, func() bool {
		for _, v := range append(buf[:canaryLen:canaryLen], buf[canaryLen+n:]...) {
			if math.Float32bits(v) != canaryBits {
				return false
			}
		}
		return true
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// seqReduceScatter is the reference: member lr's chunk of c₀ + c₁ + …,
// summed per element in local-rank order.
func seqReduceScatter(contribs []*tensor.Tensor, lr int) []float32 {
	chunk := contribs[0].Len() / len(contribs)
	out := make([]float32, chunk)
	for j := range out {
		s := contribs[0].Data[lr*chunk+j]
		for _, c := range contribs[1:] {
			s += c.Data[lr*chunk+j]
		}
		out[j] = s
	}
	return out
}

// TestDestinationFormsMatchAllocatingOps pins AllGatherInto, IAllGather,
// ReduceScatterInto and IReduceScatter against the allocating AllGather and
// ReduceScatter and a sequential local-rank-order reference, Float32bits,
// on flat and hierarchical (HostSize 2) groups of 1–5 members: canaries
// around every destination stay intact, a reduce-scatter destination
// accumulates (dst = base + sum), an all-gather whose own chunk already is
// the contribution leaves it alone, and the Meter sees identical bytes and
// msgs for the blocking forms (the nonblocking forms always take the flat
// transport, so they match on flat groups).
func TestDestinationFormsMatchAllocatingOps(t *testing.T) {
	const rows, cols = 2, 3
	for _, hostSize := range []int{0, 2} {
		for n := 1; n <= 5; n++ {
			t.Run(fmt.Sprintf("host%d/n%d", hostSize, n), func(t *testing.T) {
				agIn := func(lr int) *tensor.Tensor { return mixedContrib(lr, rows, cols, 1) }
				rsIn := func(lr int) *tensor.Tensor { return mixedContrib(lr, n*rows, cols, 2) }
				base := func(lr int) *tensor.Tensor { return mixedContrib(lr+7, rows, cols, 3) }
				var rsAll []*tensor.Tensor
				for lr := 0; lr < n; lr++ {
					rsAll = append(rsAll, rsIn(lr))
				}

				run := func(body func(g *comm.Group, rank, lr int)) *volumeMeter {
					w := comm.NewWorld(n)
					w.Topo = comm.Topology{HostSize: hostSize}
					m := newVolumeMeter(n)
					w.Meter = m
					g := w.NewGroup(rankRange(n))
					g.Label = "dp"
					if err := w.RunSPMD(func(rank int) { body(g, rank, g.LocalRank(rank)) }); err != nil {
						t.Fatal(err)
					}
					return m
				}
				ag := make([]*tensor.Tensor, n)
				rs := make([]*tensor.Tensor, n)
				alloc := run(func(g *comm.Group, rank, lr int) {
					ag[lr] = g.AllGather(rank, agIn(lr))
					rs[lr] = g.ReduceScatter(rank, rsIn(lr))
				})
				for lr := 0; lr < n; lr++ {
					if want := seqReduceScatter(rsAll, lr); !bitsEqual(rs[lr].Data, want) {
						t.Fatalf("member %d: ReduceScatter differs from the local-rank-order sum", lr)
					}
					var want []float32
					for k := 0; k < n; k++ {
						want = append(want, agIn(k).Data...)
					}
					if !bitsEqual(ag[lr].Data, want) {
						t.Fatalf("member %d: AllGather differs from the concatenation", lr)
					}
				}

				type form struct {
					name  string
					issue func(g *comm.Group, rank int, x, dst *tensor.Tensor, gather bool)
				}
				forms := []form{
					{"blocking", func(g *comm.Group, rank int, x, dst *tensor.Tensor, gather bool) {
						if gather {
							g.AllGatherInto(rank, x, dst)
						} else {
							g.ReduceScatterInto(rank, x, dst)
						}
					}},
					{"nonblocking", func(g *comm.Group, rank int, x, dst *tensor.Tensor, gather bool) {
						if gather {
							g.IAllGather(rank, x, dst).Wait()
						} else {
							g.IReduceScatter(rank, x, dst).Wait()
						}
					}},
				}
				for _, f := range forms {
					var mu sync.Mutex
					var bad []string
					fail := func(format string, args ...any) {
						mu.Lock()
						bad = append(bad, fmt.Sprintf(format, args...))
						mu.Unlock()
					}
					m := run(func(g *comm.Group, rank, lr int) {
						dst, ok := canaried(nil, n*rows, cols)
						f.issue(g, rank, agIn(lr), dst, true)
						if !ok() || !bitsEqual(dst.Data, ag[lr].Data) {
							fail("member %d: all-gather destination differs or canaries hit", lr)
						}
						// Gathering into the buffer the contribution lives in.
						full, ok := canaried(nil, n*rows, cols)
						own := full.RowSlice(lr*rows, (lr+1)*rows)
						copy(own.Data, agIn(lr).Data)
						f.issue(g, rank, own, full, true)
						if !ok() || !bitsEqual(full.Data, ag[lr].Data) {
							fail("member %d: in-place all-gather differs or canaries hit", lr)
						}
						acc, ok := canaried(base(lr), rows, cols)
						f.issue(g, rank, rsIn(lr), acc, false)
						want := base(lr).Data
						for j := range want {
							want[j] += rs[lr].Data[j]
						}
						if !ok() || !bitsEqual(acc.Data, want) {
							fail("member %d: reduce-scatter destination is not base + sum, or canaries hit", lr)
						}
					})
					if len(bad) > 0 {
						t.Fatalf("%s: %v", f.name, bad)
					}
					// The in-place all-gather is the third call; the
					// allocating run issued two ops, so compare per op.
					if f.name == "blocking" || hostSize == 0 {
						for r := 0; r < n; r++ {
							for op, v := range alloc.byRank[r] {
								want := v
								if op == "allgather" || op == "allgather.intra" || op == "allgather.inter" {
									want.Bytes, want.Msgs = 2*v.Bytes, 2*v.Msgs
								}
								if got := m.byRank[r][op]; !reflect.DeepEqual(got, want) {
									t.Fatalf("%s rank %d %s: metered %+v, allocating ops %+v", f.name, r, op, got, want)
								}
							}
							if len(m.byRank[r]) != len(alloc.byRank[r]) {
								t.Fatalf("%s rank %d: metered ops %v, allocating ops %v", f.name, r, m.byRank[r], alloc.byRank[r])
							}
						}
					}
				}
			})
		}
	}
}

// TestIReduceScatterReducesIssuedValues: the nonblocking reduce-scatter
// stages its contribution at issue, so a caller that overwrites its buffer
// right after issue — FSDP clears its flat gradients there — still has the
// issued values reduced. Members 0..n-2 issue and overwrite before the last
// member issues, so the combine runs after every overwrite.
func TestIReduceScatterReducesIssuedValues(t *testing.T) {
	const n, rows, cols = 3, 3, 2
	w := comm.NewWorld(n)
	g := w.NewGroup(rankRange(n))
	g.Label = "dp"
	var contribs []*tensor.Tensor
	for lr := 0; lr < n; lr++ {
		contribs = append(contribs, mixedContrib(lr, rows*n, cols, 5))
	}
	var issued sync.WaitGroup
	issued.Add(n - 1)
	got := make([]*tensor.Tensor, n)
	if err := w.RunSPMD(func(rank int) {
		x := contribs[rank].Clone()
		dst := tensor.New(rows, cols)
		if rank == n-1 {
			issued.Wait()
		}
		h := g.IReduceScatter(rank, x, dst)
		x.Fill(1e30)
		if rank != n-1 {
			issued.Done()
		}
		h.Wait()
		got[rank] = dst
	}); err != nil {
		t.Fatal(err)
	}
	for lr := 0; lr < n; lr++ {
		if !bitsEqual(got[lr].Data, seqReduceScatter(contribs, lr)) {
			t.Fatalf("member %d reduced the overwritten buffer, not the issued values", lr)
		}
	}
}

func rankRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
