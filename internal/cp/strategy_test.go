package cp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// The adaptive-CP bitwise property grid. For every strategy (all-gather
// baseline, pure ring, mixed per-document plan) × shard layout (even zigzag,
// contiguous ragged, planned ragged) × mask (causal, document) × CP size:
//
//   - forward output rows are Float32bits-equal to the dense full-sequence
//     oracle at the rank's positions (row independence: the streamed blocked
//     kernel computes every score element with the dense rounding sequence);
//   - the per-rank dK/dV contributions entering ReduceKVGrad are
//     Float32bits-equal to the dense oracle run with dY zeroed outside the
//     rank's rows (the backward kernels skip exact-zero coefficients, so the
//     masked dense run accumulates exactly the rank's rows in the same
//     ascending order);
//   - the reduced local dK/dV equal the pinned left-fold (ascending local
//     rank) of those dense per-rank contributions — combineSum's documented
//     order — selected at the rank's rows;
//   - dx (which folds dQ, dK, dV through the projections) is
//     Float32bits-equal across every strategy for a fixed layout, so the
//     exchange schedule is bitwise invisible end to end;
//   - under the pure all-gather plan the zigzag Sharding and its
//     ZigzagRagged form assemble identical K/V bits and issue identical
//     per-(group, op) bytes and message counts: the exchanger has no
//     per-layout-type path left to diverge on.

const (
	gridHeads   = 4
	gridKVHeads = 2
	gridHeadDim = 8
	gridDim     = gridHeads * gridHeadDim
)

func newGridAttn() *model.Attention {
	return model.NewAttention("attn", gridDim, gridHeads, gridKVHeads, gridHeadDim, 10000, rand.New(rand.NewSource(11)))
}

// identityKV captures the dense oracle's pre-reduction dK/dV at the KV seam
// without changing any bits: gather is a copy, reduce is a copy.
type identityKV struct {
	dK, dV *tensor.Tensor
}

func (c *identityKV) GatherKV(k, v *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return k.Clone(), v.Clone()
}

func (c *identityKV) ReduceKVGrad(dK, dV *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	c.dK, c.dV = dK.Clone(), dV.Clone()
	return dK.Clone(), dV.Clone()
}

// captureKV wraps the CP exchanger and records what crosses the seam. It
// forwards the streaming interface, so the attention layer makes the same
// fused-vs-streamed choice it would make on the bare exchanger.
type captureKV struct {
	inner            *KV
	fullK, fullV     *tensor.Tensor // assembled full-sequence K/V
	dK, dV           *tensor.Tensor // pre-reduce contributions
	localDK, localDV *tensor.Tensor // post-reduce local rows
}

func (c *captureKV) GatherKV(k, v *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return c.StreamKV(k, v, nil)
}

func (c *captureKV) Streams() bool { return c.inner.Streams() }

func (c *captureKV) SeqLen() int { return c.inner.SeqLen() }

func (c *captureKV) StreamKV(k, v *tensor.Tensor, onBlock func(kBlk, vBlk *tensor.Tensor, runs []model.PosRun)) (*tensor.Tensor, *tensor.Tensor) {
	fk, fv := c.inner.StreamKV(k, v, onBlock)
	c.fullK, c.fullV = fk.Clone(), fv.Clone()
	return fk, fv
}

func (c *captureKV) ReduceKVGrad(dK, dV *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	c.dK, c.dV = dK.Clone(), dV.Clone()
	lk, lv := c.inner.ReduceKVGrad(dK, dV)
	c.localDK, c.localDV = lk.Clone(), lv.Clone()
	return lk, lv
}

// denseOracle runs the dense full-sequence layer once per CP rank with dY
// zeroed outside that rank's rows, returning per-rank y (shared), dx rows,
// and per-rank dK/dV contributions.
type denseOracle struct {
	y        *tensor.Tensor
	dKs, dVs []*tensor.Tensor // per local rank contribution, full-sequence
}

func buildDenseOracle(seq int, mask attention.Mask, x, dY *tensor.Tensor, pos [][]int) *denseOracle {
	o := &denseOracle{}
	for lr := range pos {
		attn := newGridAttn()
		env := model.SeqEnv(seq, mask)
		id := &identityKV{}
		env.KV = id
		y, ctx := attn.Forward(x, env)
		masked := tensor.New(seq, gridDim)
		for _, p := range pos[lr] {
			copy(masked.Row(p), dY.Row(p))
		}
		attn.Backward(ctx, masked)
		o.dKs = append(o.dKs, id.dK)
		o.dVs = append(o.dVs, id.dV)
		if lr == 0 {
			o.y = y
		}
	}
	return o
}

// foldRows left-folds the per-rank contributions in ascending local-rank
// order (combineSum's pinned order) and selects rows at pos.
func foldRows(contribs []*tensor.Tensor, pos []int) *tensor.Tensor {
	sum := contribs[0].Clone()
	for _, c := range contribs[1:] {
		sum.Add(c)
	}
	return packRows(sum, pos)
}

func docIDsOf(docs []int, seq int) []int {
	if docs == nil {
		return nil
	}
	ids := make([]int, 0, seq)
	for d, n := range docs {
		for i := 0; i < n; i++ {
			ids = append(ids, d)
		}
	}
	if len(ids) != seq {
		panic("bad docs")
	}
	return ids
}

func allRing(starts []int) []bool {
	r := make([]bool, len(starts))
	for i := range r {
		r[i] = true
	}
	return r
}

func noRing(starts []int) []bool { return make([]bool, len(starts)) }

func alternate(starts []int) []bool {
	r := make([]bool, len(starts))
	for i := range r {
		r[i] = i%2 == 0
	}
	return r
}

func TestStrategyBitwisePropertyGrid(t *testing.T) {
	layouts := func(seq, cpSize int) map[string]Layout {
		m := map[string]Layout{
			"zigzag":        NewSharding(seq, cpSize),
			"zigzag-ragged": ZigzagRagged(NewSharding(seq, cpSize)),
		}
		// Contiguous ragged with unequal shard sizes.
		sizes := make([]int, cpSize)
		rest := seq
		for i := 0; i < cpSize-1; i++ {
			sizes[i] = seq/cpSize + (i+1)*2
			rest -= sizes[i]
		}
		sizes[cpSize-1] = rest
		var parts [][]int
		off := 0
		for _, n := range sizes {
			p := make([]int, n)
			for i := range p {
				p[i] = off + i
			}
			parts = append(parts, p)
			off += n
		}
		m["ragged"] = NewRaggedSharding(seq, parts)
		// Strided ragged: rank r owns rows ≡ r (mod cp) — maximally
		// fragmented runs, the worst case for the run decomposition.
		var strided [][]int
		for r := 0; r < cpSize; r++ {
			var p []int
			for i := r; i < seq; i += cpSize {
				p = append(p, i)
			}
			strided = append(strided, p)
		}
		m["strided"] = NewRaggedSharding(seq, strided)
		return m
	}

	cases := []struct {
		seq, cpSize int
		docs        []int
	}{
		{24, 2, nil},
		{24, 3, []int{7, 9, 8}},
		{256, 2, []int{100, 60, 96}}, // crosses 64×64 tile boundaries
		{256, 4, nil},
	}
	plans := []struct {
		name   string
		mkPlan func([]int) []bool
	}{
		{"allgather", noRing}, // must run first: it is the cross-strategy baseline
		{"ring", allRing},
		{"mixed", alternate},
	}

	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.seq*31 + tc.cpSize)))
		x := tensor.RandN(rng, 1, tc.seq, gridDim)
		dY := tensor.RandN(rng, 1, tc.seq, gridDim)
		docIDs := docIDsOf(tc.docs, tc.seq)
		var mask attention.Mask = attention.Causal{}
		if docIDs != nil {
			mask = attention.Document{DocID: docIDs}
		}
		starts := []int{0}
		if docIDs != nil {
			starts = DocBounds(docIDs, tc.seq)
		}
		// What the pure all-gather plan assembled and issued, per layout.
		type agRun struct {
			fullK, fullV []*tensor.Tensor
			perOp        map[comm.OpKey][2]int64
		}
		agRuns := map[string]agRun{}
		for layoutName, layout := range layouts(tc.seq, tc.cpSize) {
			pos := make([][]int, tc.cpSize)
			for lr := range pos {
				pos[lr] = layout.LocalPositions(lr)
			}
			oracle := buildDenseOracle(tc.seq, mask, x, dY, pos)

			// Per-layout baseline dx for the cross-strategy assertion.
			var baseDX []*tensor.Tensor
			for _, pl := range plans {
				planName, mkPlan := pl.name, pl.mkPlan
				name := fmt.Sprintf("seq%d_cp%d_%s_%s", tc.seq, tc.cpSize, layoutName, planName)
				world, group := newCPWorld(tc.cpSize)
				meter := &opMeter{perOp: map[comm.OpKey][2]int64{}}
				world.Meter = meter
				dxs := make([]*tensor.Tensor, tc.cpSize)
				caps := make([]*captureKV, tc.cpSize)
				err := world.RunSPMD(func(rank int) {
					attn := newGridAttn()
					plan := Plan{Seq: tc.seq, DocStarts: starts, Ring: mkPlan(starts)}
					cap := &captureKV{inner: NewKV(layout, plan, group, rank, 0)}
					env := cap.inner.Env(mask)
					env.KV = cap
					caps[rank] = cap
					xl := packRows(x, pos[rank])
					dyl := packRows(dY, pos[rank])
					y, ctx := attn.Forward(xl, env)
					for i, p := range pos[rank] {
						for j := 0; j < gridDim; j++ {
							if y.At(i, j) != oracle.y.At(p, j) {
								panic(fmt.Sprintf("rank %d: y[%d][%d] differs from dense oracle", rank, i, j))
							}
						}
					}
					dxs[rank] = attn.Backward(ctx, dyl)
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for rank := 0; rank < tc.cpSize; rank++ {
					cap := caps[rank]
					if cap.Streams() != (planName != "allgather") {
						t.Fatalf("%s rank %d: Streams() = %v; only a plan with a ring document streams", name, rank, cap.Streams())
					}
					if !tensor.BitwiseEqual(cap.dK, oracle.dKs[rank]) || !tensor.BitwiseEqual(cap.dV, oracle.dVs[rank]) {
						t.Fatalf("%s rank %d: pre-reduce dK/dV differ from masked-dY dense oracle", name, rank)
					}
					wantDK := foldRows(oracle.dKs, pos[rank])
					wantDV := foldRows(oracle.dVs, pos[rank])
					if !tensor.BitwiseEqual(cap.localDK, wantDK) || !tensor.BitwiseEqual(cap.localDV, wantDV) {
						t.Fatalf("%s rank %d: reduced dK/dV differ from pinned-fold dense oracle", name, rank)
					}
				}
				if planName == "allgather" {
					baseDX = dxs
					run := agRun{perOp: meter.perOp}
					for _, cap := range caps {
						run.fullK, run.fullV = append(run.fullK, cap.fullK), append(run.fullV, cap.fullV)
					}
					agRuns[layoutName] = run
				} else {
					for rank := 0; rank < tc.cpSize; rank++ {
						if !tensor.BitwiseEqual(dxs[rank], baseDX[rank]) {
							t.Fatalf("%s rank %d: dx differs from all-gather baseline", name, rank)
						}
					}
				}
			}
		}
		even, ragged := agRuns["zigzag"], agRuns["zigzag-ragged"]
		for rank := 0; rank < tc.cpSize; rank++ {
			if !tensor.BitwiseEqual(even.fullK[rank], ragged.fullK[rank]) || !tensor.BitwiseEqual(even.fullV[rank], ragged.fullV[rank]) {
				t.Fatalf("seq%d_cp%d rank %d: all-gather K/V differ between Sharding and ZigzagRagged", tc.seq, tc.cpSize, rank)
			}
		}
		if !reflect.DeepEqual(even.perOp, ragged.perOp) {
			t.Fatalf("seq%d_cp%d: all-gather traffic differs between Sharding %v and ZigzagRagged %v", tc.seq, tc.cpSize, even.perOp, ragged.perOp)
		}
	}
}

// opMeter is a comm.Meter totalling {bytes, issues} per (group, op) over the
// whole world.
type opMeter struct {
	mu    sync.Mutex
	perOp map[comm.OpKey][2]int64
}

func (m *opMeter) RecordOp(rank int, group, op string, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.perOp[comm.OpKey{Group: group, Op: op}]
	m.perOp[comm.OpKey{Group: group, Op: op}] = [2]int64{e[0] + bytes, e[1] + 1}
}
