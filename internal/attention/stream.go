package attention

import "llama4d/internal/tensor"

// Streamed blocked attention: the score plane of one head is filled
// incrementally as key blocks arrive (ring context parallelism), then
// finished by the one forward (blocked.go) with its score stage skipped.
// Because every score element is one independent running dot over the head
// dimension in increasing order — the dense MatMulT rounding, computed by the
// same scoreRows nest the one-shot call runs — the arrival order of blocks is
// bitwise invisible: StreamScores over any partition of the key axis followed
// by StreamFinish equals Forward equals DenseForward, element for element.

// StreamScores computes s[i][j] = q[i]·k[j] for the key run occupying global
// score columns [colStart, colStart+nCols), where key j lives in row
// rowOff+(j-colStart) of kBlk at head columns [kvOff, kvOff+d). It writes
// the run's columns on g's non-empty tiles and nothing else, so s may be
// uninitialised. Each element is one ascending running sum over the head
// dim — the dense kernel's rounding sequence — so block boundaries and tile
// traversal order never change any bit.
func StreamScores(s, q, kBlk *tensor.Tensor, kvOff, rowOff, colStart, nCols int, g *Grid) {
	sq, sk, d, kw := q.Rows(), s.Cols(), q.Cols(), kBlk.Cols()
	cEnd := colStart + nCols
	// Swept pairs of this column strip, for worker sizing only.
	var swept int
	for ct := colStart / g.TileCols; ct < g.NCols; ct++ {
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
	base := (rowOff-colStart)*kw + kvOff
	kT := keyPanel(kBlk.Data, kw, base, d, colStart, cEnd, g)
	tensor.ParallelRows(sq, tensor.Workers(sq, swept*d), func(lo, hi int) {
		scoreRows(s.Data[lo*sk:], sk, q.Data[lo*d:], d, kBlk.Data, kw, base, kT, colStart, cEnd, g, lo, hi)
	})
	tensor.Put(kT)
}

// StreamFinish completes one head whose raw scores were streamed into s
// ([sq, seq], non-empty tiles filled by StreamScores): it is the forward with
// its score stage already run — the same masked softmax and zero-skipping
// P·V, the same tile census and FLOP counts as ForwardRecorded over the same
// grid, as one serial pass — and returns the head output plus the
// probability plane (s, normalised in place on its non-empty tiles) for the
// backward pass. Bitwise identical to Forward(q, kFull, v, ...) — and
// therefore to DenseForward — on every non-empty tile.
func StreamFinish(s, v *tensor.Tensor, m Mask, qPos []int, g *Grid, rec *Recorder) *Output {
	o := tensor.Get(s.Rows(), v.Cols())
	forward(o, s, nil, nil, v, m, qPos, 0, g, rec, nil, 1)
	return &Output{O: o, P: s}
}
