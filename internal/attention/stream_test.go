package attention

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/tensor"
)

// Streaming property: StreamScores over ANY partition of the key axis, fed in
// ANY order, followed by StreamFinish, equals the one-shot Forward (blocked
// or dense — they agree) bit for bit, O and P planes both.
func TestStreamMatchesForwardBitwise(t *testing.T) {
	seq, d := 160, 16
	rng := rand.New(rand.NewSource(31))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)

	docIDs := DocIDsFromLengths([]int{70, 40, 50}, seq)
	masks := map[string]Mask{
		"full":   Full{},
		"causal": Causal{},
		"doc":    Document{DocID: docIDs},
	}
	// Query row layouts: whole sequence, a contiguous slice, a strided subset.
	qLayouts := map[string][]int{
		"all":     Iota(seq),
		"slice":   iotaRange(40, 120),
		"strided": strided(seq, 3, 1),
	}
	// Key-axis partitions: one block, even blocks, ragged blocks.
	partitions := map[string][]int{ // block boundaries (ascending, 0 and seq implied)
		"one":    {},
		"even":   {40, 80, 120},
		"ragged": {13, 64, 77, 150},
	}

	for maskName, m := range masks {
		for qName, qPos := range qLayouts {
			ql := packQ(q, qPos)
			want := Forward(ql, k, v, m, qPos, 0)
			for partName, cuts := range partitions {
				bounds := append(append([]int{0}, cuts...), seq)
				for _, reverse := range []bool{false, true} {
					g := BuildGrid(m, qPos, 0, seq)
					s := tensor.Get(len(qPos), seq)
					nb := len(bounds) - 1
					for bi := 0; bi < nb; bi++ {
						b := bi
						if reverse {
							b = nb - 1 - bi
						}
						lo, hi := bounds[b], bounds[b+1]
						StreamScores(s, ql, k.RowSlice(lo, hi), 0, 0, lo, hi-lo, g)
					}
					got := StreamFinish(s, v, m, qPos, g, nil)
					name := fmt.Sprintf("%s/%s/%s rev=%v", maskName, qName, partName, reverse)
					if !tensor.BitwiseEqual(got.O, want.O) {
						t.Fatalf("%s: streamed O differs from one-shot Forward", name)
					}
					if !tensor.BitwiseEqual(got.P, want.P) {
						t.Fatalf("%s: streamed P differs from one-shot Forward", name)
					}
					tensor.Put(got.O, got.P)
				}
			}
			tensor.Put(want.O, want.P, ql)
		}
	}
}

// StreamScores must read the right head's columns out of a packed multi-head
// K block (kvOff selects the head), matching a pre-sliced single-head call —
// for the whole key axis and for a run at a non-zero rowOff whose colStart is
// not tile-aligned, the one call shape only the strided score loop serves.
func TestStreamScoresHeadOffset(t *testing.T) {
	seq, d, heads := 96, 8, 3
	rng := rand.New(rand.NewSource(32))
	q := tensor.RandN(rng, 0.5, seq, d)
	kAll := tensor.RandN(rng, 0.5, seq, heads*d)
	qPos := Iota(seq)
	g := BuildGrid(Causal{}, qPos, 0, seq)
	for h := 0; h < heads; h++ {
		kh := tensor.GetUninit(seq, d)
		for i := 0; i < seq; i++ {
			copy(kh.Row(i), kAll.Row(i)[h*d:(h+1)*d])
		}
		want := tensor.Get(seq, seq)
		StreamScores(want, q, kh, 0, 0, 0, seq, g)
		got := tensor.Get(seq, seq)
		StreamScores(got, q, kAll, h*d, 0, 0, seq, g)
		if !tensor.BitwiseEqual(got, want) {
			t.Fatalf("head %d: kvOff read differs from pre-sliced block", h)
		}
		// A key run that starts mid-tile, crosses a tile boundary and sits
		// rowOff rows into a larger packed block (a ring hop's merged block):
		// exactly its columns are written, with the one-shot call's bits.
		const rowOff, colStart, nCols = 5, 37, 41
		blk := tensor.RandN(rng, 0.5, rowOff+nCols+2, heads*d)
		for j := 0; j < nCols; j++ {
			copy(blk.Row(rowOff+j), kAll.Row(colStart+j))
		}
		strip := tensor.Get(seq, seq)
		StreamScores(strip, q, blk, h*d, rowOff, colStart, nCols, g)
		for i := 0; i < seq; i++ {
			for j := 0; j < seq; j++ {
				w := want.At(i, j)
				if j < colStart || j >= colStart+nCols {
					w = 0
				}
				if math.Float32bits(strip.At(i, j)) != math.Float32bits(w) {
					t.Fatalf("head %d: strip [%d,%d) at rowOff %d wrote s[%d][%d] = %v, want %v", h, colStart, colStart+nCols, rowOff, i, j, strip.At(i, j), w)
				}
			}
		}
		tensor.Put(kh, want, got, strip)
	}
}

// The recording contract: a streamed head must record the same tile census
// and FLOP totals as the one-shot blocked call it replaces.
func TestStreamFinishRecordingParity(t *testing.T) {
	seq, d := 130, 8
	rng := rand.New(rand.NewSource(33))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	m := Document{DocID: DocIDsFromLengths([]int{65, 65}, seq)}
	qPos := Iota(seq)

	recWant := &Recorder{}
	g := BuildGrid(m, qPos, 0, seq)
	want := &Output{O: tensor.New(seq, d), P: tensor.New(seq, seq)}
	ForwardRecorded(want.O, want.P, q, k, v, m, qPos, 0, g, recWant)
	recGot := &Recorder{}
	s := tensor.Get(seq, seq)
	StreamScores(s, q, k, 0, 0, 0, seq, g)
	got := StreamFinish(s, v, m, qPos, g, recGot)
	if !tensor.BitwiseEqual(got.O, want.O) {
		t.Fatal("streamed O differs")
	}
	if *recGot != *recWant {
		t.Fatalf("recording differs: streamed %+v one-shot %+v", recGot, recWant)
	}
	tensor.Put(want.O, want.P, got.O, got.P)
}

func iotaRange(lo, hi int) []int {
	p := make([]int, hi-lo)
	for i := range p {
		p[i] = lo + i
	}
	return p
}

func strided(seq, step, off int) []int {
	var p []int
	for i := off; i < seq; i += step {
		p = append(p, i)
	}
	return p
}

func packQ(q *tensor.Tensor, pos []int) *tensor.Tensor {
	out := tensor.GetUninit(len(pos), q.Cols())
	for i, p := range pos {
		copy(out.Row(i), q.Row(p))
	}
	return out
}
