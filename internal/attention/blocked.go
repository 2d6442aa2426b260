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

// Tiling returns the blocked engine's current tile geometry. Test surface:
// the blocked and kernel suites read it to save and restore SetTiling.
func Tiling() (rows, cols int) { return tileRows, tileCols }

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

// forward is the one attention forward, a row-band loop: scores, masked
// softmax, P·V, each stage over the non-empty tiles of g only and all three of
// a row band inside one worker. Every accumulation keeps the dense kernels'
// ordering and zero-skips, so the result is bitwise identical to DenseForward.
// Three entries run it:
//
//   - Forward (q, k non-nil, part nil): s is a zeroed plane — empty-tile
//     probabilities are exact +0 — and ends as the probabilities, o is a
//     zeroed [sq, d] output; the census goes to rec and both products' FLOPs
//     are counted.
//   - StreamFinish (q nil): the score stage already ran (StreamScores); the
//     rest is the Forward case.
//   - PartialForwardInto (part non-nil, o its zeroed part.O): the rows' final
//     × 1/sum is replaced by storing their max and sum in part.M/part.L, so o
//     stays unnormalised. Only the score sweep's FLOPs are counted and
//     nothing is recorded, as that kernel always has; s may be uninitialised
//     because no stage reads an empty tile.
func forward(o, s, q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int, g *Grid, rec *Recorder, part *Partial) {
	sq, sk, d := s.Rows(), s.Cols(), v.Cols()
	scale := float32(1 / math.Sqrt(float64(d)))
	eff := effFLOPs(g, d)
	tensor.CountMatMulFLOPs(sq, d, sk, eff) // scores q@kᵀ
	if part == nil {
		rec.Record(g, 2, d)
		tensor.CountMatMulFLOPs(sq, sk, d, eff) // output p@v
	}
	work := sweptWork(g, d)
	if q != nil {
		work *= 2
	}
	body := func(lo, hi int) {
		if q != nil {
			blockedScoreRows(s, q, k, g, lo, hi)
		}
		blockedSoftmaxRows(s, m, qPos, kOff, g, scale, part, lo, hi)
		blockedPVRows(o, s, v, g, lo, hi)
	}
	tensor.ParallelRows(sq, tensor.Workers(sq, work), body)
}

// scoreRows computes s[i][j] = q[i]·key(j) for query rows [lo, hi) and score
// columns [colStart, colEnd) at every non-empty tile, where key j is the d
// floats at kd[(rowOff+j-colStart)·kw+kvOff:] — a run of rows of a packed
// multi-head block (StreamScores) or, with kw = d and the offsets zero, row j
// of a plain [sk, d] matrix (blockedScoreRows). Each element is one running
// sum over the head dim in increasing order — the same rounding sequence as
// the dense MatMulT kernel. Empty-tile entries are left untouched. The loop
// nest is tile-outer, row-inner so one tile's key slab stays cache-resident
// across the row band; neither the nesting order nor where a key run starts
// or ends changes any element's reduction sequence, so both are bitwise
// invisible.
func scoreRows(s, q *tensor.Tensor, kd []float32, kw, kvOff, rowOff, colStart, colEnd int, g *Grid, lo, hi int) {
	d := q.Cols()
	n := s.Cols()
	sd, qd := s.Data, q.Data
	base := (rowOff-colStart)*kw + kvOff
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
			for i := r0; i < r1; i++ {
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

// blockedScoreRows is scoreRows over the whole key axis of a contiguous
// [sk, d] key matrix: the forward's q·kᵀ and the backward's dP = dO·vᵀ.
func blockedScoreRows(s, q, k *tensor.Tensor, g *Grid, lo, hi int) {
	scoreRows(s, q, k.Data, k.Cols(), 0, 0, 0, s.Cols(), g, lo, hi)
}

// blockedSoftmaxRows scales and softmaxes score rows [lo, hi) in place over
// the non-empty tiles: full tiles run without mask checks, partial tiles
// hoist the mask via RowMask, masked entries are written as exact +0 — the
// value dense maskedSoftmaxRows produces via exp(-Inf). Max, exponential and
// normalisation reproduce SoftmaxRow's arithmetic term for term; the sum
// skips only exact-zero contributions, which IEEE addition from +0 cannot
// observe. With a non-nil part the rows stay unnormalised — exp(score − max)
// at allowed keys — and each row's max and sum are stored in part.M and
// part.L instead (−Inf and 0 for a row with no allowed key): the flash-style
// statistics, one rounded add per allowed key in increasing key order, as
// DensePartialForwardInto's sweep computes them.
func blockedSoftmaxRows(s *tensor.Tensor, m Mask, qPos []int, kOff int, g *Grid, scale float32, part *Partial, lo, hi int) {
	sk := s.Cols()
	negInf := float32(math.Inf(-1))
	var allowed []bool
	for i := lo; i < hi; i++ {
		rt := i / g.TileRows
		row := s.Row(i)
		kinds := g.Kinds[rt*g.NCols : (rt+1)*g.NCols]
		needMask := false
		for _, kind := range kinds {
			if kind == TilePartial {
				needMask = true
				break
			}
		}
		if needMask {
			if allowed == nil {
				allowed = make([]bool, sk)
			}
			RowMask(m, qPos[i], kOff, allowed)
		}
		// Scale and row max over allowed entries; masked entries of partial
		// tiles become +0 now so a fully-masked row needs no second pass.
		maxv := negInf
		for ct, kind := range kinds {
			if kind == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			if kind == TileFull {
				for j := c0; j < c1; j++ {
					row[j] *= scale
					if row[j] > maxv {
						maxv = row[j]
					}
				}
				continue
			}
			for j := c0; j < c1; j++ {
				if allowed[j] {
					row[j] *= scale
					if row[j] > maxv {
						maxv = row[j]
					}
				} else {
					row[j] = 0
				}
			}
		}
		if part != nil {
			part.M[i], part.L[i] = maxv, 0
		}
		if math.IsInf(float64(maxv), -1) {
			// No allowed key (or every allowed score NaN): dense SoftmaxRow
			// zeroes the row. Empty tiles already hold +0.
			for ct, kind := range kinds {
				if kind == TileEmpty {
					continue
				}
				c0, c1 := g.colBand(ct)
				for j := c0; j < c1; j++ {
					row[j] = 0
				}
			}
			continue
		}
		var sum float32
		for ct, kind := range kinds {
			if kind == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			if kind == TileFull {
				for j := c0; j < c1; j++ {
					e := float32(math.Exp(float64(row[j] - maxv)))
					row[j] = e
					sum += e
				}
				continue
			}
			for j := c0; j < c1; j++ {
				if allowed[j] {
					e := float32(math.Exp(float64(row[j] - maxv)))
					row[j] = e
					sum += e
				}
			}
		}
		if part != nil {
			part.L[i] = sum
			continue
		}
		inv := 1 / sum
		for ct, kind := range kinds {
			if kind == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			for j := c0; j < c1; j++ {
				row[j] *= inv // masked entries are +0: unchanged
			}
		}
	}
}

// blockedPVRows accumulates o[i] += Σ_j p[i][j]·v[j] for rows [lo, hi),
// skipping empty tiles and, like the dense MatMul kernel, every exact-zero
// probability — one separately-rounded add per nonzero term in increasing
// key order (tensor.AccumRows, the kernel under MatMul itself).
func blockedPVRows(o, p, v *tensor.Tensor, g *Grid, lo, hi int) {
	d := v.Cols()
	n := p.Cols()
	od, pd, vd := o.Data, p.Data, v.Data
	for rt := lo / g.TileRows; rt < g.NRows && rt*g.TileRows < hi; rt++ {
		r0, r1 := g.rowBand(rt)
		r0, r1 = max(r0, lo), min(r1, hi)
		// Tile-outer, row-inner: the tile's value slab stays cache-resident
		// across the row band. Each o[i] still accumulates its tiles in
		// increasing-ct (hence increasing-j) order — bitwise unchanged.
		for ct := 0; ct < g.NCols; ct++ {
			if g.Kind(rt, ct) == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			for i := r0; i < r1; i++ {
				tensor.AccumRows(od[i*d:(i+1)*d], pd[i*n+c0:i*n+c1], vd[c0*d:c1*d])
			}
		}
	}
}

// blockedKeyRows accumulates out[j] += Σ_i s[i][j]·b[i] for key rows
// [lo, hi) from the row-major [sq, sk] plane s, read where it lies: per
// non-empty tile, column j (stride sk) is gathered into a TileRows-long
// scratch and handed to the contiguous accumulate kernel — TileRows loads
// per TileRows×d accumulate, no transposed copy of s, no strided kernel
// under the GEMMs (DESIGN.md §4e). Reduction runs over query row-tiles in
// increasing order, skipping empty tiles and exact-zero coefficients — the
// dense TMatMul ordering. Serves both dV (s = P, b = dO) and dK (s = dS,
// b = q).
func blockedKeyRows(out, s, b *tensor.Tensor, g *Grid, lo, hi int) {
	d := b.Cols()
	n := s.Cols()
	od, sd, bd := out.Data, s.Data, b.Data
	var buf [defaultTileRows]float32 // on the worker's stack at the default tiling
	col := buf[:]
	if g.TileRows > len(col) {
		col = make([]float32, g.TileRows)
	}
	for ct := lo / g.TileCols; ct < g.NCols && ct*g.TileCols < hi; ct++ {
		c0, c1 := g.colBand(ct)
		c0, c1 = max(c0, lo), min(c1, hi)
		// Tile-outer, key-row-inner: the tile's b slab stays cache-resident
		// across the key band. Each out[j] still accumulates its tiles in
		// increasing-rt (hence increasing-i) order — bitwise unchanged.
		for rt := 0; rt < g.NRows; rt++ {
			if g.Kind(rt, ct) == TileEmpty {
				continue
			}
			r0, r1 := g.rowBand(rt)
			cj := col[:r1-r0]
			for j := c0; j < c1; j++ {
				for r := range cj {
					cj[r] = sd[(r0+r)*n+j]
				}
				tensor.AccumRows(od[j*d:(j+1)*d], cj, bd[r0*d:r1*d])
			}
		}
	}
}

// blockedBackward is the blocked engine behind Backward: the same four
// gradient products as DenseBackward as sweeps over the non-empty tiles — dV
// reads P; dP, dS and dQ run fused per query row; dK reads dS — with one
// [sq, sk] temporary, dS written in place over dP. No sweep touches an empty
// tile, so the plane needs no zero-fill and nothing is transposed. Masked
// probabilities are exact zeros, so dense already skips their terms
// value-by-value; the grid skips them tile-by-tile (including the dP and dS
// sweeps dense pays in full) without changing a bit.
func blockedBackward(q, k, v, p, dO *tensor.Tensor, m Mask, qPos []int, kOff int, rec *Recorder) (dQ, dK, dV *tensor.Tensor) {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	scale := float32(1 / math.Sqrt(float64(d)))
	g := BuildGrid(m, qPos, kOff, sk)
	rec.Record(g, 4, d)
	eff := effFLOPs(g, d)
	tensor.CountMatMulFLOPs(sk, sq, d, eff) // dV = pᵀ@dO
	tensor.CountMatMulFLOPs(sq, d, sk, eff) // dP = dO@vᵀ
	tensor.CountMatMulFLOPs(sq, sk, d, eff) // dQ = dS@k
	tensor.CountMatMulFLOPs(sk, sq, d, eff) // dK = dSᵀ@q

	work := sweptWork(g, d)
	keyWorkers := tensor.Workers(sk, work)

	// dV: reduce over query rows per key row.
	dV = tensor.Get(sk, d)
	tensor.ParallelRows(sk, keyWorkers, func(lo, hi int) {
		blockedKeyRows(dV, p, dO, g, lo, hi)
	})

	// dP, dS = P ∘ (dP − rowsum(dP ∘ P)) and dQ, fused per query row.
	dS := tensor.GetUninit(sq, sk)
	dQ = tensor.Get(sq, d)
	tensor.ParallelRows(sq, tensor.Workers(sq, 2*work), func(lo, hi int) {
		blockedScoreRows(dS, dO, v, g, lo, hi)
		blockedSoftmaxBackwardRows(dS, p, g, lo, hi)
		blockedPVRows(dQ, dS, k, g, lo, hi)
	})
	dQ.Scale(scale)

	// dK: reduce over query rows per key row.
	dK = tensor.Get(sk, d)
	tensor.ParallelRows(sk, keyWorkers, func(lo, hi int) {
		blockedKeyRows(dK, dS, q, g, lo, hi)
	})
	tensor.Put(dS)
	dK.Scale(scale)
	return dQ, dK, dV
}

// blockedSoftmaxBackwardRows turns dP into dS = P ∘ (dP − rowsum(dP ∘ P)) in
// place for rows [lo, hi) over the non-empty tiles: an element needs only its
// own dP and the row's finished dot. The row dot accumulates every swept
// term like dense softmaxBackwardRows; empty-tile terms are P·dP products
// with P exactly +0, whose signed-zero contributions IEEE addition from a
// non-negative accumulator cannot observe.
func blockedSoftmaxBackwardRows(dS, p *tensor.Tensor, g *Grid, lo, hi int) {
	for i := lo; i < hi; i++ {
		rt := i / g.TileRows
		pi, dsi := p.Row(i), dS.Row(i)
		kinds := g.Kinds[rt*g.NCols : (rt+1)*g.NCols]
		var dot float32
		for ct, kind := range kinds {
			if kind == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			for j := c0; j < c1; j++ {
				dot += pi[j] * dsi[j]
			}
		}
		for ct, kind := range kinds {
			if kind == TileEmpty {
				continue
			}
			c0, c1 := g.colBand(ct)
			for j := c0; j < c1; j++ {
				dsi[j] = pi[j] * (dsi[j] - dot)
			}
		}
	}
}
