package attention

import (
	"math"

	"llama4d/internal/tensor"
)

// Streamed blocked attention: the score plane of one head is filled
// incrementally as key blocks arrive (ring context parallelism), then
// finished with the same masked-softmax / P·V sweep the one-shot blocked
// engine runs. Because every score element is one independent running dot
// over the head dimension in increasing order — exactly the dense MatMulT
// and blockedScoreRows rounding — the arrival order of blocks is bitwise
// invisible: StreamScores over any partition of the key axis followed by
// StreamFinish equals blockedForward equals DenseForward, element for
// element.

// StreamScores computes s[i][j] = q[i]·k[j] for the key run occupying global
// score columns [colStart, colStart+nCols), where key j lives in row
// rowOff+(j-colStart) of kBlk at head columns [kvOff, kvOff+d). Only
// non-empty tiles of g are touched; empty-tile entries keep the exact +0 the
// zeroed score plane was allocated with. Each element is one ascending
// running sum over the head dim — the dense kernel's rounding sequence — so
// block boundaries and tile traversal order never change any bit.
func StreamScores(s, q, kBlk *tensor.Tensor, kvOff, rowOff, colStart, nCols int, g *Grid) {
	sq, d := q.Rows(), q.Cols()
	kw := kBlk.Cols()
	n := s.Cols()
	sd, qd, kd := s.Data, q.Data, kBlk.Data
	cEnd := colStart + nCols
	ct0 := colStart / g.TileCols
	// Swept pairs of this column strip, for worker sizing only.
	var swept int
	for ct := ct0; ct < g.NCols; ct++ {
		c0, c1 := g.colBand(ct)
		c0, c1 = max(c0, colStart), min(c1, cEnd)
		if c0 >= c1 {
			break
		}
		for rt := 0; rt < g.NRows; rt++ {
			if g.Kind(rt, ct) != TileEmpty {
				swept += (c1 - c0) * g.TileRows
			}
		}
	}
	body := func(lo, hi int) {
		for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
			r0, r1 := g.rowBand(rt)
			r0, r1 = max(r0, lo), min(r1, hi)
			for ct := ct0; ct < g.NCols; ct++ {
				c0, c1 := g.colBand(ct)
				c0, c1 = max(c0, colStart), min(c1, cEnd)
				if c0 >= c1 {
					break
				}
				if g.Kind(rt, ct) == TileEmpty {
					continue
				}
				base := (rowOff - colStart) * kw
				for i := r0; i < r1; i++ {
					qi := qd[i*d : (i+1)*d]
					si := sd[i*n : (i+1)*n]
					j := c0
					for ; j+3 < c1; j += 4 {
						k0 := kd[base+j*kw+kvOff : base+j*kw+kvOff+d]
						k1 := kd[base+(j+1)*kw+kvOff : base+(j+1)*kw+kvOff+d]
						k2 := kd[base+(j+2)*kw+kvOff : base+(j+2)*kw+kvOff+d]
						k3 := kd[base+(j+3)*kw+kvOff : base+(j+3)*kw+kvOff+d]
						var s0, s1, s2, s3 float32
						for p, qp := range qi {
							s0 += qp * k0[p]
							s1 += qp * k1[p]
							s2 += qp * k2[p]
							s3 += qp * k3[p]
						}
						si[j], si[j+1], si[j+2], si[j+3] = s0, s1, s2, s3
					}
					for ; j < c1; j++ {
						kj := kd[base+j*kw+kvOff : base+j*kw+kvOff+d]
						var sum float32
						for p, qp := range qi {
							sum += qp * kj[p]
						}
						si[j] = sum
					}
				}
			}
		}
	}
	if workers := tensor.Workers(sq, swept*d); workers <= 1 {
		body(0, sq)
	} else {
		tensor.ParallelRows(sq, workers, body)
	}
}

// StreamFinish completes one head whose raw scores were streamed into s
// ([sq, seq], zero-allocated, non-empty tiles filled by StreamScores): it
// runs the blocked masked softmax and the zero-skipping P·V accumulation,
// records the tile census and FLOPs exactly as blockedForward does for a
// one-shot call over the same grid, and returns the head output plus the
// probability plane (s, normalised in place) for the backward pass. Bitwise
// identical to blockedForward(q, kFull, v, ...) — and therefore to
// DenseForward — per row.
func StreamFinish(s, v *tensor.Tensor, m Mask, qPos []int, g *Grid, rec *Recorder) *Output {
	sq, sk := s.Rows(), s.Cols()
	d := v.Cols()
	scale := float32(1 / math.Sqrt(float64(d)))
	rec.Record(g, 2, d)
	eff := effFLOPs(g, d)
	tensor.CountMatMulFLOPs(sq, d, sk, eff) // scores q@kᵀ (streamed)
	tensor.CountMatMulFLOPs(sq, sk, d, eff) // output p@v
	o := tensor.Get(sq, d)
	body := func(lo, hi int) {
		blockedSoftmaxRows(s, m, qPos, 0, g, scale, lo, hi)
		blockedPVRows(o, s, v, g, lo, hi)
	}
	if workers := tensor.Workers(sq, sweptWork(g, d)); workers <= 1 {
		body(0, sq)
	} else {
		tensor.ParallelRows(sq, workers, body)
	}
	return &Output{O: o, P: s}
}
