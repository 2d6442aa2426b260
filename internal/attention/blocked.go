package attention

import (
	"fmt"
	"math"
	"slices"

	"llama4d/internal/tensor"
)

// The blocked engine tiles the [sq, sk] score plane into TileRows×TileCols
// blocks and classifies each tile against the mask before any arithmetic
// runs: empty tiles (no allowed pair) are skipped in every sweep — scores,
// softmax, P·V, and all four backward matmuls — full tiles (every pair
// allowed) run without per-element mask checks, and partial tiles keep the
// dense per-element path. Classification uses only causalCut-style interval
// arithmetic plus the DocStarts index, so it costs O(sq + tiles) per call.
//
// Skipping is bitwise-neutral by the §6.2 contract: the dense kernels give
// masked positions probability exactly +0 (exp(-Inf) under SoftmaxRow) and
// skip zero-valued terms in every accumulation, and IEEE-754 addition
// starting from +0 can never produce -0, so dropping a tile whose every
// contribution is a signed zero leaves all downstream sums bit-identical.
// Like the dense zero-skips, the equivalence assumes finite scores (an ±Inf
// logit would propagate NaN through dense rows the blocked path skips).

// defaultTileRows/Cols match flash-attention production practice: blocks
// large enough to amortise classification, small enough that document
// boundaries at realistic lengths (§ context parallelism) carve out empty
// tiles.
const (
	defaultTileRows = 64
	defaultTileCols = 64
)

// Tile geometry. Plain variables, not atomics: they are set during
// single-goroutine setup (before a cluster's rank goroutines are spawned —
// goroutine creation publishes the write) and read-only while kernels run.
var (
	tileRows = defaultTileRows
	tileCols = defaultTileCols
)

// SetTiling sets the blocked engine's tile geometry and returns the previous
// one. Small tiles resolve finer mask structure (more empty tiles) at higher
// classification overhead; the tiling never changes results, only which work
// is provably skippable. It stays process-wide because the balance planner,
// the data packer, the simulator and xval must classify with the kernels'
// geometry, and none of them shares a value with the kernels to carry it.
func SetTiling(rows, cols int) (prevRows, prevCols int) {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("attention: invalid tiling %dx%d", rows, cols))
	}
	prevRows, prevCols = tileRows, tileCols
	tileRows, tileCols = rows, cols
	return prevRows, prevCols
}

// TileKind classifies one score tile against the mask.
type TileKind uint8

const (
	// TileEmpty tiles contain no allowed pair and are skipped entirely.
	TileEmpty TileKind = iota
	// TilePartial tiles mix allowed and masked pairs: computed with the
	// dense per-element mask path.
	TilePartial
	// TileFull tiles are entirely allowed: computed with no mask checks.
	TileFull
)

// Grid is the tile classification of one [sq, sk] score plane: the kind of
// every tile plus the pair accounting the effective-FLOP counter and the
// sparsity stats are built from. The same grid drives the measured kernels,
// the closed-form xval prediction, and the simulator's sparsity fields — one
// classifier, three consumers.
type Grid struct {
	Sq, Sk             int
	TileRows, TileCols int
	NRows, NCols       int
	Kinds              []TileKind // NRows×NCols, row-major

	// AllowedPairs counts mask-allowed (q, k) pairs exactly; EmptyPairs
	// counts the pairs covered by skipped tiles. Partial-tile masked pairs
	// are in neither: they are swept (and so cost effective FLOPs) even
	// though the mask zeroes them.
	AllowedPairs int64
	EmptyPairs   int64

	FullTiles, PartialTiles, EmptyTiles int64
}

// Kind returns the classification of tile (rt, ct).
func (g *Grid) Kind(rt, ct int) TileKind { return g.Kinds[rt*g.NCols+ct] }

// TotalPairs returns sq·sk, the dense pair count.
func (g *Grid) TotalPairs() int64 { return int64(g.Sq) * int64(g.Sk) }

// rowBand returns the query-row range [r0, r1) of row-tile rt.
func (g *Grid) rowBand(rt int) (r0, r1 int) {
	r0 = rt * g.TileRows
	return r0, min(r0+g.TileRows, g.Sq)
}

// colBand returns the key-column range [c0, c1) of col-tile ct.
func (g *Grid) colBand(ct int) (c0, c1 int) {
	c0 = ct * g.TileCols
	return c0, min(c0+g.TileCols, g.Sk)
}

// Summary returns the grid's pair/tile accounting as a one-call Stats value.
func (g *Grid) Summary() Stats {
	return Stats{
		Calls:        1,
		TotalPairs:   g.TotalPairs(),
		AllowedPairs: g.AllowedPairs,
		EmptyPairs:   g.EmptyPairs,
		FullTiles:    g.FullTiles,
		PartialTiles: g.PartialTiles,
		EmptyTiles:   g.EmptyTiles,
	}
}

func newGrid(sq, sk int) *Grid {
	g := &Grid{
		Sq: sq, Sk: sk,
		TileRows: tileRows, TileCols: tileCols,
		NRows: (sq + tileRows - 1) / tileRows,
		NCols: (sk + tileCols - 1) / tileCols,
	}
	g.Kinds = make([]TileKind, g.NRows*g.NCols)
	return g
}

// BuildGrid classifies the score tiles of queries at global positions qPos
// against the key block at kOff..kOff+sk-1 under mask m. The built-in mask
// types classify via interval arithmetic (causalCut bounds plus the
// DocStarts index, which reads a document as one run of positions and so
// needs non-decreasing ids); a Document whose ids recur and unknown mask
// implementations conservatively mark every tile partial, which degenerates
// to the dense per-element path — identical semantics by construction.
func BuildGrid(m Mask, qPos []int, kOff, sk int) *Grid {
	switch mm := m.(type) {
	case Full:
		g := newGrid(len(qPos), sk)
		for i := range g.Kinds {
			g.Kinds[i] = TileFull
		}
		g.FullTiles = int64(len(g.Kinds))
		g.AllowedPairs = g.TotalPairs()
		return g
	case Causal:
		return BuildGridFromStarts(qPos, nil, kOff, sk)
	case Document:
		if slices.IsSorted(mm.DocID) {
			return BuildGridFromStarts(qPos, DocStarts(mm.DocID), kOff, sk)
		}
	}
	g := newGrid(len(qPos), sk)
	for i := range g.Kinds {
		g.Kinds[i] = TilePartial
	}
	g.PartialTiles = int64(len(g.Kinds))
	for _, q := range qPos {
		for j := 0; j < sk; j++ {
			if m.Allowed(q, kOff+j) {
				g.AllowedPairs++
			}
		}
	}
	return g
}

// BuildGridFromStarts classifies tiles for the document mask expressed as a
// DocStarts interval index: query q attends exactly keys [starts[q], q]. A
// nil starts means plain causal attention (every document starts at 0).
// Negative query positions (ring-attention probes) attend nothing under a
// document mask, matching RowMask. This is the entry point shared with the
// simulator (internal/sim/engine), which models sparsity from the same
// docStarts vectors the measured kernels classify with.
func BuildGridFromStarts(qPos []int, starts []int, kOff, sk int) *Grid {
	sq := len(qPos)
	g := newGrid(sq, sk)
	for rt := 0; rt < g.NRows; rt++ {
		r0, r1 := g.rowBand(rt)
		minQ, maxQ := math.MaxInt, math.MinInt
		minStart, maxStart := math.MaxInt, math.MinInt
		allValid := true
		for i := r0; i < r1; i++ {
			q := qPos[i]
			minQ = min(minQ, q)
			maxQ = max(maxQ, q)
			if starts != nil {
				if q < 0 {
					allValid = false
					continue
				}
				minStart = min(minStart, starts[q])
				maxStart = max(maxStart, starts[q])
			}
		}
		anyValid := starts == nil || minStart != math.MaxInt
		for ct := 0; ct < g.NCols; ct++ {
			c0, c1 := g.colBand(ct)
			k0, k1 := kOff+c0, kOff+c1-1 // inclusive global key range
			var kind TileKind
			switch {
			case k0 > maxQ, !anyValid, starts != nil && k1 < minStart:
				kind = TileEmpty
			case k1 <= minQ && (starts == nil || (allValid && k0 >= maxStart)):
				kind = TileFull
			default:
				kind = TilePartial
			}
			g.Kinds[rt*g.NCols+ct] = kind
			area := int64(r1-r0) * int64(c1-c0)
			switch kind {
			case TileEmpty:
				g.EmptyTiles++
				g.EmptyPairs += area
			case TilePartial:
				g.PartialTiles++
			default:
				g.FullTiles++
			}
		}
		// Exact allowed-pair count, mirroring RowMask semantics per row.
		for i := r0; i < r1; i++ {
			q := qPos[i]
			cut := causalCut(q, kOff, sk)
			if starts == nil {
				g.AllowedPairs += int64(cut)
				continue
			}
			if q < 0 || cut == 0 {
				continue
			}
			lo := max(starts[q]-kOff, 0)
			if cut > lo {
				g.AllowedPairs += int64(cut - lo)
			}
		}
	}
	return g
}

// Stats is the blocked engine's work accounting: one Calls increment plus
// the underlying grid's pair/tile counts per recorded engine invocation. A
// Recorder accumulates it per rank; internal/metrics sums the ranks into the
// step's profile.
type Stats struct {
	Calls        int64 `json:"calls"`
	TotalPairs   int64 `json:"total_pairs"`
	AllowedPairs int64 `json:"allowed_pairs"`
	EmptyPairs   int64 `json:"empty_pairs"`
	FullTiles    int64 `json:"full_tiles"`
	PartialTiles int64 `json:"partial_tiles"`
	EmptyTiles   int64 `json:"empty_tiles"`
}

// Add returns s + o, field-wise.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Calls:        s.Calls + o.Calls,
		TotalPairs:   s.TotalPairs + o.TotalPairs,
		AllowedPairs: s.AllowedPairs + o.AllowedPairs,
		EmptyPairs:   s.EmptyPairs + o.EmptyPairs,
		FullTiles:    s.FullTiles + o.FullTiles,
		PartialTiles: s.PartialTiles + o.PartialTiles,
		EmptyTiles:   s.EmptyTiles + o.EmptyTiles,
	}
}

// Scale returns s with every counter multiplied by n (closed-form
// prediction helper: one grid's stats times an invocation count).
func (s Stats) Scale(n int64) Stats {
	return Stats{
		Calls:        s.Calls * n,
		TotalPairs:   s.TotalPairs * n,
		AllowedPairs: s.AllowedPairs * n,
		EmptyPairs:   s.EmptyPairs * n,
		FullTiles:    s.FullTiles * n,
		PartialTiles: s.PartialTiles * n,
		EmptyTiles:   s.EmptyTiles * n,
	}
}

// effFLOPs returns the effective FLOP count of one matmul-shaped sweep over
// the grid with inner dimension d: 2·d per swept pair, empty tiles skipped.
func effFLOPs(g *Grid, d int) int64 {
	return 2 * int64(d) * (g.TotalPairs() - g.EmptyPairs)
}

// sweptWork returns the per-sweep FMA count used for worker sizing.
func sweptWork(g *Grid, d int) int {
	return int((g.TotalPairs() - g.EmptyPairs) * int64(d))
}

// forward is the one attention forward, a row-band loop: per band, scores,
// masked softmax and P·V run back to back while the band's rows are in
// cache, each stage over the non-empty tiles of g only. Every accumulation
// keeps the dense kernels' ordering and zero-skips, so the result is bitwise
// identical to DenseForward. No stage reads or writes an empty tile of s.
// The bands split by rows over workers goroutines (rows are independent, so
// the split is bitwise invisible). Three entries run it:
//
//   - ForwardRecorded and Forward (q, k non-nil, part nil): s ends as the
//     probabilities, o is a zeroed [sq, d] output; the census goes to rec and
//     both products' FLOPs are counted.
//   - StreamFinish (q nil): the score stage already ran (StreamScores); the
//     rest is the Forward case.
//   - PartialForwardInto (part non-nil, o its zeroed part.O): the rows' final
//     × 1/sum is replaced by storing their max and sum in part.M/part.L, so o
//     stays unnormalised. Only the score sweep's FLOPs are counted and
//     nothing is recorded, as that kernel always has.
func forward(o, s, q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int, g *Grid, rec *Recorder, part *Partial, workers int) {
	sq, sk, d := s.Rows(), s.Cols(), v.Cols()
	scale := float32(1 / math.Sqrt(float64(d)))
	eff := effFLOPs(g, d)
	tensor.CountMatMulFLOPs(sq, d, sk, eff) // scores q@kᵀ
	if part == nil {
		rec.Record(g, 2, d)
		tensor.CountMatMulFLOPs(sq, sk, d, eff) // output p@v
	}
	var kT *tensor.Tensor
	if q != nil {
		kT = keyPanel(k.Data, d, 0, d, 0, sk, g)
	}
	tensor.ParallelRows(sq, workers, func(lo, hi int) {
		var sc softmaxScratch
		for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
			r0, r1 := g.rowBand(rt)
			r0, r1 = max(r0, lo), min(r1, hi)
			if q != nil {
				scoreRows(s.Data[r0*sk:], sk, q.Data[r0*d:], d, k.Data, d, 0, kT, 0, sk, g, r0, r1)
			}
			blockedSoftmaxRows(s, m, qPos, kOff, g, scale, part, &sc, r0, r1)
			blockedPVRows(o, s.Data[r0*sk:], sk, v, g, r0, r1)
		}
	})
	tensor.Put(kT)
}

// keyPanel returns the keys of score columns [c0, c1), key j the d floats at
// kd[base+j·kw:], transposed into a pooled [d, c1−c0] panel: the score
// tiles' b operand. It returns nil when no row band has four rows (a decode
// step's query): scoreRows then reads the keys in place.
func keyPanel(kd []float32, kw, base, d, c0, c1 int, g *Grid) *tensor.Tensor {
	if min(g.TileRows, g.Sq) < 4 {
		return nil
	}
	w := c1 - c0
	kT := tensor.GetUninit(d, w)
	tensor.TransposeBlock(kT.Data, w, kd[base+c0*kw:], kw, w, d)
	return kT
}

// scoreRows computes s[i][j] = q[i]·key(j) for query rows [lo, hi) and score
// columns [colStart, colEnd) at every non-empty tile, where sd and qd start
// at row lo (row strides n and d) and key j is the d floats at
// kd[base+j·kw:] — a run of rows of a packed multi-head block (StreamScores)
// or, with kw = d and base 0, row j of a plain [sk, d] matrix. Each element is
// one running sum from +0 over the head dim in increasing order — the dense
// MatMulT rounding sequence. Empty-tile entries are left untouched. A band of
// four or more rows clears its rows of the tile and runs tensor.AccumBlock
// with skip off on kT, the run's keys transposed (keyPanel), whose register
// tile lanes are score elements running exactly that sum. A band of one to
// three rows (a decode step's query) runs a scalar nest on the keys in place,
// four keys' chains side by side. Neither nesting order nor run boundaries
// change any element's sum.
func scoreRows(sd []float32, n int, qd []float32, d int, kd []float32, kw, base int, kT *tensor.Tensor, colStart, colEnd int, g *Grid, lo, hi int) {
	for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
		r0, r1 := g.rowBand(rt)
		r0, r1 = max(r0, lo), min(r1, hi)
		for ct := colStart / g.TileCols; ct < g.NCols; ct++ {
			c0, c1 := g.colBand(ct)
			c0, c1 = max(c0, colStart), min(c1, colEnd)
			if c0 >= c1 {
				break
			}
			if g.Kind(rt, ct) == TileEmpty {
				continue
			}
			if r1-r0 >= 4 {
				for i := r0 - lo; i < r1-lo; i++ {
					clear(sd[i*n+c0 : i*n+c1])
				}
				tensor.AccumBlock(sd[(r0-lo)*n+c0:], n, qd[(r0-lo)*d:], d, kT.Data[c0-colStart:], colEnd-colStart, r1-r0, d, c1-c0, false)
				continue
			}
			for i := r0 - lo; i < r1-lo; i++ {
				qi := qd[i*d : (i+1)*d]
				si := sd[i*n : (i+1)*n]
				j := c0
				for ; j+3 < c1; j += 4 {
					a0 := base + j*kw
					a1, a2, a3 := a0+kw, a0+2*kw, a0+3*kw
					k0, k1, k2, k3 := kd[a0:a0+d], kd[a1:a1+d], kd[a2:a2+d], kd[a3:a3+d]
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
					a := base + j*kw
					kj := kd[a : a+d]
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

// span is the column range [c0, c1) of one or more adjacent non-empty tiles
// of a row band; full when every one of them is.
type span struct {
	c0, c1 int
	full   bool
}

// appendSpans appends the column ranges of row-tile rt's non-empty tiles to
// dst in increasing column order, merging adjacent tiles when both are full,
// or always when merge is set (the band's runs of non-empty tiles).
func (g *Grid) appendSpans(dst []span, rt int, merge bool) []span {
	for ct, kind := range g.Kinds[rt*g.NCols : (rt+1)*g.NCols] {
		if kind == TileEmpty {
			continue
		}
		c0, c1 := g.colBand(ct)
		full := kind == TileFull
		if n := len(dst); n > 0 && dst[n-1].c1 == c0 && (merge || full && dst[n-1].full) {
			dst[n-1].c1, dst[n-1].full = c1, full && dst[n-1].full
			continue
		}
		dst = append(dst, span{c0, c1, full})
	}
	return dst
}

// groupRows is how many rows of a band run their sum or dot chains side by
// side (tensor.SumRows8, tensor.DotRows8).
const groupRows = 8

// softmaxScratch is one band loop's blockedSoftmaxRows scratch: a row's
// mask, its band's spans and runs, and per partial span its allowed keys.
type softmaxScratch struct {
	allowed     []bool
	spans, runs []span
	cuts        [][2]int
}

// blockedSoftmaxRows scales and softmaxes score rows [lo, hi) in place over
// the non-empty tiles: runs of full tiles scale and take the max on lanes
// (tensor.ScaleMax). Partial tiles hoist the mask via RowMask over their own
// columns, set the masked entries outside the span from their first to their
// last allowed key to +0 directly (the exp's value for them) and run the exp
// over the span alone. A span with no masked key inside (a causal or
// document row's usual case) scales and takes the max on lanes like a full
// tile; any other writes its masked entries as −Inf, where exp(−Inf − max)
// is exact +0 for every max (dense maskedSoftmaxRows' value). Max,
// exponential and normalisation reproduce SoftmaxRow's arithmetic term for
// term. Each row's sum is one chain over its band's runs of non-empty tiles
// in increasing key order, eight rows' chains at a time (tensor.SumRows8);
// it adds masked +0s SoftmaxRow skips, which IEEE addition from +0 cannot
// observe (no exp is −0).
// With a non-nil part the rows stay unnormalised — exp(score − max) at
// allowed keys — and each row's max and sum are stored in part.M and part.L
// instead (−Inf and 0 for a row with no allowed key): the flash-style
// statistics, one rounded add per allowed key in increasing key order, as
// DensePartialForwardInto's sweep computes them. ScaleMax keeps the scan's
// sign on a ±0-tied max, so part.M has the dense bits. sc is the caller's
// scratch, reused across its bands.
func blockedSoftmaxRows(s *tensor.Tensor, m Mask, qPos []int, kOff int, g *Grid, scale float32, part *Partial, sc *softmaxScratch, lo, hi int) {
	sk := s.Cols()
	negInf := float32(math.Inf(-1))
	allowed, spans, runs, cuts := sc.allowed, sc.spans, sc.runs, sc.cuts
	for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
		r0, r1 := g.rowBand(rt)
		r0, r1 = max(r0, lo), min(r1, hi)
		spans = g.appendSpans(spans[:0], rt, false)
		runs = g.appendSpans(runs[:0], rt, true)
		cuts = slices.Grow(cuts[:0], len(spans))[:len(spans)]
		for i := r0; i < r1; {
			rows := 1
			if r1-i >= groupRows {
				rows = groupRows
			}
			var live [groupRows]bool
			for r := range rows {
				row := s.Row(i + r)
				// Scale and row max over allowed entries; a partial tile's
				// masked entries become +0 outside its allowed span and −Inf
				// inside it, which the exp pass turns into +0. Only partial
				// tiles read the mask, so it is built over their columns
				// alone.
				maxv := negInf
				for k, c := range spans {
					if c.full {
						maxv = tensor.ScaleMax(row[c.c0:c.c1], scale, maxv)
						continue
					}
					if allowed == nil {
						allowed = make([]bool, sk)
					}
					RowMask(m, qPos[i+r], kOff+c.c0, allowed[c.c0:c.c1])
					a, b := c.c0, c.c1
					for a < b && !allowed[a] {
						a++
					}
					for b > a && !allowed[b-1] {
						b--
					}
					clear(row[c.c0:a])
					clear(row[b:c.c1])
					cuts[k] = [2]int{a, b}
					if slices.Index(allowed[a:b], false) < 0 {
						maxv = tensor.ScaleMax(row[a:b], scale, maxv)
						continue
					}
					for j := a; j < b; j++ {
						if allowed[j] {
							row[j] *= scale
							if row[j] > maxv {
								maxv = row[j]
							}
						} else {
							row[j] = negInf
						}
					}
				}
				if part != nil {
					part.M[i+r], part.L[i+r] = maxv, 0
				}
				if math.IsInf(float64(maxv), -1) {
					// No allowed key (or every allowed score NaN): dense
					// SoftmaxRow zeroes the row, here on its non-empty tiles.
					for _, c := range runs {
						clear(row[c.c0:c.c1])
					}
					continue
				}
				live[r] = true
				for k, c := range spans {
					if !c.full {
						c.c0, c.c1 = cuts[k][0], cuts[k][1]
					}
					tensor.ExpShift(row[c.c0:c.c1], maxv)
				}
			}
			var sum [groupRows]float32
			for _, c := range runs {
				if rows == groupRows {
					tensor.SumRows8(&sum, s.Data[i*sk+c.c0:], sk, c.c1-c.c0)
					continue
				}
				for _, e := range s.Row(i)[c.c0:c.c1] {
					sum[0] += e
				}
			}
			for r, ok := range live[:rows] {
				switch {
				case !ok:
				case part != nil:
					part.L[i+r] = sum[r]
				default:
					row, inv := s.Row(i+r), 1/sum[r]
					for _, c := range runs {
						tensor.ScaleRow(row[c.c0:c.c1], inv) // masked entries are +0: unchanged
					}
				}
			}
			i += rows
		}
	}
	sc.allowed, sc.spans, sc.runs, sc.cuts = allowed, spans, runs, cuts
}

// blockedPVRows accumulates o[i] += Σ_j p[i][j]·v[j] for rows [lo, hi), where
// pd holds p from row lo on (row stride n), skipping empty tiles and, like
// the dense MatMul kernel, every exact-zero coefficient — one
// separately-rounded add per nonzero term in increasing key order: per band,
// one tensor.AccumBlock call per non-empty tile in increasing ct. It serves
// the forward's P·V and the backward's dQ = dS·K.
func blockedPVRows(o *tensor.Tensor, pd []float32, n int, v *tensor.Tensor, g *Grid, lo, hi int) {
	d := v.Cols()
	od, vd := o.Data, v.Data
	for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
		r0, r1 := g.rowBand(rt)
		r0, r1 = max(r0, lo), min(r1, hi)
		for ct := 0; ct < g.NCols; ct++ {
			if g.Kind(rt, ct) == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			tensor.AccumBlock(od[r0*d:], d, pd[(r0-lo)*n+c0:], n, vd[c0*d:], d, r1-r0, c1-c0, d, true)
		}
	}
}

// backward is the blocked engine behind Backward: DenseBackward's four
// gradient products as one serial pass over the query row bands, each band's
// dP = dO·Vᵀ, dS = P ∘ (dP − rowsum(dP ∘ P)), dQ += dS·K, dV += Pᵀ·dO and
// dK += dSᵀ·q done while it is in cache (backwardRows), dS in one
// [TileRows, sk] band buffer and V transposed once. No sweep touches an empty
// tile, whose exact-zero terms dense skips value by value.
func backward(q, k, v, p, dO *tensor.Tensor, g *Grid, rec *Recorder) (dQ, dK, dV *tensor.Tensor) {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	scale := float32(1 / math.Sqrt(float64(d)))
	rec.Record(g, 4, d)
	eff := effFLOPs(g, d)
	tensor.CountMatMulFLOPs(sk, sq, d, eff) // dV = pᵀ@dO
	tensor.CountMatMulFLOPs(sq, d, sk, eff) // dP = dO@vᵀ
	tensor.CountMatMulFLOPs(sq, sk, d, eff) // dQ = dS@k
	tensor.CountMatMulFLOPs(sk, sq, d, eff) // dK = dSᵀ@q

	dQ, dK, dV = tensor.Get(sq, d), tensor.Get(sk, d), tensor.Get(sk, d)
	vT := keyPanel(v.Data, d, 0, d, 0, sk, g)
	dS := tensor.GetUninit(min(g.TileRows, sq), sk)
	backwardRows(dQ, dK, dV, dS.Data, q, k, v, vT, p, dO, g, 0, sq)
	tensor.Put(vT, dS)
	dQ.Scale(scale)
	dK.Scale(scale)
	return dQ, dK, dV
}

// backwardRows runs the backward's band loop over query rows [lo, hi) —
// each band's dP, dS, dQ, dV and dK — with dS a one-band buffer (row stride
// sk) and vT nil or V's keyPanel. Per non-empty tile, the band's block of P,
// then of dS, is transposed into sT, a [TileCols, TileRows] scratch, and one
// tensor.AccumBlock call, skip on, adds it times the band's dO, then q, rows
// into the tile's dV, then dK, rows. So every dV and dK element adds its terms
// in increasing query row, skipping exact zeros — DenseBackward's TMatMul
// order — and splitting [0, sq) into increasing ranges gives the same bits.
func backwardRows(dQ, dK, dV *tensor.Tensor, dS []float32, q, k, v, vT, p, dO *tensor.Tensor, g *Grid, lo, hi int) {
	sk, d := p.Cols(), q.Cols()
	sT := tensor.GetUninit(g.TileCols, g.TileRows)
	for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
		r0, r1 := g.rowBand(rt)
		r0, r1 = max(r0, lo), min(r1, hi)
		scoreRows(dS, sk, dO.Data[r0*d:], d, v.Data, d, 0, vT, 0, sk, g, r0, r1)
		blockedSoftmaxBackwardRows(dS, p, g, r0, r1)
		blockedPVRows(dQ, dS, sk, k, g, r0, r1)
		h := r1 - r0
		for ct := range g.NCols {
			if g.Kind(rt, ct) == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			tensor.TransposeBlock(sT.Data, h, p.Data[r0*sk+c0:], sk, h, c1-c0)
			tensor.AccumBlock(dV.Data[c0*d:], d, sT.Data, h, dO.Data[r0*d:], d, c1-c0, h, d, true)
			tensor.TransposeBlock(sT.Data, h, dS[c0:], sk, h, c1-c0)
			tensor.AccumBlock(dK.Data[c0*d:], d, sT.Data, h, q.Data[r0*d:], d, c1-c0, h, d, true)
		}
	}
	tensor.Put(sT)
}

// blockedSoftmaxBackwardRows turns dP into dS = P ∘ (dP − rowsum(dP ∘ P)) in
// place for rows [lo, hi) over the non-empty tiles, where ds holds dP from
// row lo on (row stride sk): an element needs only its own dP and the row's
// finished dot (tensor.SoftmaxGradRow). The row dot accumulates every swept
// term like dense softmaxBackwardRows, one chain in increasing key order,
// eight rows' chains at a time (tensor.DotRows8); empty-tile terms are P·dP
// products with P exactly +0, whose signed-zero contributions IEEE addition
// from a non-negative accumulator cannot observe.
func blockedSoftmaxBackwardRows(ds []float32, p *tensor.Tensor, g *Grid, lo, hi int) {
	sk := p.Cols()
	var runs []span
	for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
		r0, r1 := g.rowBand(rt)
		r0, r1 = max(r0, lo), min(r1, hi)
		runs = g.appendSpans(runs[:0], rt, true)
		for i := r0; i < r1; {
			rows := 1
			if r1-i >= groupRows {
				rows = groupRows
			}
			di := ds[(i-lo)*sk:]
			var dot [groupRows]float32
			for _, c := range runs {
				if rows == groupRows {
					tensor.DotRows8(&dot, p.Data[i*sk+c.c0:], sk, di[c.c0:], sk, c.c1-c.c0)
					continue
				}
				pi, dsi := p.Row(i)[c.c0:c.c1], di[c.c0:c.c1]
				for j, pj := range pi {
					dot[0] += float32(pj * dsi[j])
				}
			}
			for r := range rows {
				pi, dsi := p.Row(i+r), di[r*sk:(r+1)*sk]
				for _, c := range runs {
					tensor.SoftmaxGradRow(dsi[c.c0:c.c1], pi[c.c0:c.c1], dot[r])
				}
			}
			i += rows
		}
	}
}
