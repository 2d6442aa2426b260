package attention

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/tensor"
)

// poison retires two NaN-filled tensors of the given shape to the default
// pool, so the next uninitialised Gets of that element count come back
// NaN-filled.
func poison(shape ...int) {
	for range 2 {
		t := tensor.New(shape...)
		t.Fill(float32(math.NaN()))
		tensor.Put(t)
	}
}

// checkGridPoisoned holds the grid entries to the dense oracles on planes
// whose every word starts as NaN: ForwardRecorded (its output and plane, and
// the backward's band buffer, key panel and tile scratch primed with NaN),
// then BackwardRecorded on that P. O and P on the non-empty tiles must be
// Float32bits-equal to DenseForward, every empty-tile word must still be
// NaN, and dQ, dK, dV must equal DenseBackward on the dense P. A sweep that read an empty tile or an unwritten word would carry
// the NaN into a result; one that wrote an empty tile would clear it.
func checkGridPoisoned(t *testing.T, label string, q, k, v, dO *tensor.Tensor, m Mask, qPos []int, kOff int) {
	t.Helper()
	sq, sk, d := q.Rows(), k.Rows(), q.Cols()
	g := BuildGrid(m, qPos, kOff, sk)
	dense := DenseForward(q, k, v, m, qPos, kOff)
	wdq, wdk, wdv := DenseBackward(q, k, v, dense.P, dO)

	poison(sq, sk)
	poison(sq, d)
	out := &Output{O: tensor.GetUninit(sq, d), P: tensor.GetUninit(sq, sk)}
	ForwardRecorded(out.O, out.P, q, k, v, m, qPos, kOff, g, nil)
	checkPoisonedPlane(t, label+": ForwardRecorded", g, out, dense)
	poison(min(g.TileRows, sq), sk)
	poison(d, sk)
	poison(g.TileCols, g.TileRows)
	dq, dk, dv := BackwardRecorded(q, k, v, out.P, dO, g, nil)
	if !tensor.BitwiseEqual(dq, wdq) || !tensor.BitwiseEqual(dk, wdk) || !tensor.BitwiseEqual(dv, wdv) {
		t.Fatalf("%s: BackwardRecorded on the poisoned P differs from DenseBackward", label)
	}
	tensor.Put(out.O, out.P, dq, dk, dv)
}

// checkPoisonedPlane fails unless got.O equals want.O bit for bit, got.P
// equals want.P on g's non-empty tiles and every word of got.P on its empty
// tiles is NaN.
func checkPoisonedPlane(t *testing.T, label string, g *Grid, got, want *Output) {
	t.Helper()
	if !tensor.BitwiseEqual(got.O, want.O) {
		t.Fatalf("%s: O differs from DenseForward", label)
	}
	for i := 0; i < g.Sq; i++ {
		for j := 0; j < g.Sk; j++ {
			x, w := got.P.At(i, j), want.P.At(i, j)
			if g.Kind(i/g.TileRows, j/g.TileCols) == TileEmpty {
				if x == x {
					t.Fatalf("%s: empty-tile P[%d][%d] = %v was written", label, i, j, x)
				}
			} else if math.Float32bits(x) != math.Float32bits(w) {
				t.Fatalf("%s: P[%d][%d] = %v, DenseForward %v", label, i, j, x, w)
			}
		}
	}
}

// TestGridEntriesLeaveEmptyTilesPoisoned runs checkGridPoisoned over
// TestBlockedMatchesDenseGrid's points: every mask family × sequence lengths
// straddling the tile × key offsets {0, +3, −3} × the four tilings, with
// negative and mixed query positions.
func TestGridEntriesLeaveEmptyTilesPoisoned(t *testing.T) {
	const d = 8
	defer tensor.SetPooling(tensor.SetPooling(true))
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)

	seed := int64(9500)
	for _, til := range gridTilings {
		SetTiling(til[0], til[1])
		block := til[0]
		seen := map[int]bool{}
		for _, sq := range []int{1, block - 1, block, block + 1, 2*block + 3} {
			if sq < 1 || seen[sq] {
				continue
			}
			seen[sq] = true
			sk := sq + 5
			for _, kOff := range []int{0, 3, -3} {
				masks := map[string]Mask{"full": Full{}, "causal": Causal{}, "odd": oddMask{}}
				if kOff >= 0 {
					n := max(kOff+sk, sq)
					masks["document"] = Document{DocID: DocIDsFromLengths([]int{n/3 + 1, 0, n/4 + 1, 2}, n)}
				}
				for name, m := range masks {
					seed++
					q, k, v := randQKV(seed, sq, sk, d)
					dO := tensor.RandN(rand.New(rand.NewSource(seed+1)), 1, sq, d)
					qNeg, qMix := make([]int, sq), Iota(sq)
					for i := range qNeg {
						qNeg[i] = i - 2
						if i%2 == 1 {
							qMix[i] = kOff - 1 - i
						}
					}
					for pname, qPos := range map[string][]int{"": Iota(sq), "/qneg": qNeg, "/qmix": qMix} {
						checkGridPoisoned(t, labelFor(name, til, sq, kOff)+pname, q, k, v, dO, m, qPos, kOff)
					}
				}
			}
		}
	}
}

// FuzzGridAttention draws random document layouts, tilings (1–16 each way),
// sq and sk (1–96), key offsets, head dims 1–48, query positions (plain,
// or every odd row before the first key), and holds the grid entries on
// NaN-poisoned planes to the dense oracles (checkGridPoisoned). The mask is full, causal or the document layout;
// negative key offsets, which no document mask meets, fall back to causal.
func FuzzGridAttention(f *testing.F) {
	f.Add(int64(1), []byte{5, 0, 9, 3}, uint8(0x33), uint8(20), uint8(25), int8(0), uint8(7), uint8(2))
	f.Add(int64(2), []byte{64, 64}, uint8(0xff), uint8(95), uint8(95), int8(0), uint8(47), uint8(6))
	f.Add(int64(3), []byte{1, 1, 1, 1, 1}, uint8(0x00), uint8(3), uint8(9), int8(-3), uint8(0), uint8(1))
	f.Add(int64(4), []byte{}, uint8(0x7a), uint8(40), uint8(30), int8(5), uint8(15), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, docs []byte, til, sqB, skB uint8, kOffB int8, dB, mode uint8) {
		defer tensor.SetPooling(tensor.SetPooling(true))
		pr, pc := tileRows, tileCols
		defer SetTiling(pr, pc)
		SetTiling(1+int(til>>4), 1+int(til&15))
		sq, sk, d, kOff := 1+int(sqB)%96, 1+int(skB)%96, 1+int(dB)%48, int(kOffB)%16
		var m Mask
		switch {
		case mode%3 == 0:
			m = Full{}
		case mode%3 == 1 || kOff < 0:
			m = Causal{}
		default:
			lengths := make([]int, len(docs))
			for i, b := range docs {
				lengths[i] = int(b)
			}
			m = Document{DocID: DocIDsFromLengths(lengths, max(kOff+sk, sq))}
		}
		qPos := Iota(sq)
		if mode&4 != 0 {
			for i := 1; i < sq; i += 2 {
				qPos[i] = kOff - 1 - i
			}
		}
		q, k, v := randQKV(seed, sq, sk, d)
		dO := tensor.RandN(rand.New(rand.NewSource(seed+1)), 1, sq, d)
		checkGridPoisoned(t, fmt.Sprintf("seed %d tiling %v sq %d sk %d d %d kOff %d", seed, til, sq, sk, d, kOff), q, k, v, dO, m, qPos, kOff)
	})
}
