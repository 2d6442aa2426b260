package attention

import (
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/tensor"
)

// TestSoftmaxSweepsSplitAndGroupBitwise holds the blocked softmax sweeps,
// whose row sums and dots run eight rows' chains side by side, bitwise equal
// to DenseForward and DenseBackward wherever the grouping of rows can shift:
// the band loop's row range cut at every offset 1–7 inside a 64-row band
// (as a ParallelRows chunk edge would cut it), sq mod 8 ≠ 0 so a band ends
// on a short group, and rows with no allowed key inside groups of eight. The
// forward's P and O, and the dQ and dK that read dS, are compared. Under
// the full mask every tile is full and every row has keys.
func TestSoftmaxSweepsSplitAndGroupBitwise(t *testing.T) {
	pr, pc := tileRows, tileCols
	defer SetTiling(pr, pc)
	SetTiling(64, 64)

	const sq, sk, d = 150, 160, 16
	q, k, v := randQKV(77, sq, sk, d)
	dO := tensor.RandN(rand.New(rand.NewSource(78)), 1, sq, d)
	scale := float32(1 / math.Sqrt(d))
	qPos := Iota(sq)
	for _, i := range []int{65, 70, 71, 129} {
		qPos[i] = -1 - i // before the first key: no allowed key
	}
	docs := Document{DocID: DocIDsFromLengths([]int{50, 61, 49}, sk)}
	for name, m := range map[string]Mask{"causal": Causal{}, "document": docs, "full": Full{}} {
		g := BuildGrid(m, qPos, 0, sk)
		if keyless := keylessRowsInLiveBands(m, qPos, 0, sk); keyless == 0 && name != "full" {
			t.Fatalf("%s: no keyless row in a live band", name)
		}
		dense := DenseForward(q, k, v, m, qPos, 0)
		wdq, wdk, _ := DenseBackward(q, k, v, dense.P, dO)
		for off := 1; off <= 7; off++ {
			cuts := []int{0, off, 64 + off, sq}
			o, s := tensor.Get(sq, d), tensor.Get(sq, sk)
			dS, dQ, dK := tensor.GetUninit(g.TileRows, sk), tensor.Get(sq, d), tensor.Get(sk, d)
			dV := tensor.Get(sk, d)
			kT, vT := keyPanel(k, g), keyPanel(v, g)
			var sc softmaxScratch
			for c := 1; c < len(cuts); c++ {
				lo, hi := cuts[c-1], cuts[c]
				scoreRows(s.Data[lo*sk:], sk, q.Data[lo*d:], d, k.Data, kT, g, lo, hi)
				blockedSoftmaxRows(s, m, qPos, 0, g, scale, nil, &sc, lo, hi)
				blockedPVRows(o, s.Data[lo*sk:], sk, v, g, lo, hi)

				backwardRows(dQ, dK, dV, dS.Data, q, k, v, vT, dense.P, dO, g, lo, hi)
			}
			tensor.Put(kT, vT, dV)
			dQ.Scale(scale)
			dK.Scale(scale)
			switch {
			case !tensor.BitwiseEqual(s, dense.P):
				t.Fatalf("%s cut at %d: P differs from DenseForward", name, 64+off)
			case !tensor.BitwiseEqual(o, dense.O):
				t.Fatalf("%s cut at %d: O differs from DenseForward", name, 64+off)
			case !tensor.BitwiseEqual(dQ, wdq):
				t.Fatalf("%s cut at %d: dQ differs from DenseBackward", name, 64+off)
			case !tensor.BitwiseEqual(dK, wdk):
				t.Fatalf("%s cut at %d: dK differs from DenseBackward", name, 64+off)
			}
			tensor.Put(o, s, dS, dQ, dK)
		}
	}
}

// TestPartialZeroTiedMaxBitwise: part.M stores each row's max, so where the
// max is a ±0 tie its sign must be the one the scalar scan finds first, not
// whichever lane wins. Row i's scores are negative except at the "zero
// keys", columns 0–15 and 40–47: +0 there, or −0 (a −2⁻¹⁴⁹ score that the
// 1/√d scale rounds to −0) where the key's coordinate is i. So row 0 meets
// a −0 first and rows 1–7 a +0, with the other sign in other lanes of the
// same 16-lane block and of a later one. PartialForwardInto must equal
// DensePartialForwardInto bit for bit, and M must have the first zero's
// sign.
func TestPartialZeroTiedMaxBitwise(t *testing.T) {
	const sq, sk, d = 8, 64, 8
	q, k := tensor.New(sq, d), tensor.New(sk, d)
	v := tensor.RandN(rand.New(rand.NewSource(79)), 1, sk, d)
	tiny := float32(math.Ldexp(1, -75))
	for j := 0; j < sk; j++ {
		switch {
		case j < 16:
			k.Set(j, j%d, -2*tiny)
		case j >= 40 && j < 48:
			k.Set(j, d-1-j%d, -2*tiny)
		default:
			for c := 0; c < d; c++ {
				k.Set(j, c, -1)
			}
		}
	}
	for i := 0; i < sq; i++ {
		q.Set(i, i, tiny)
	}
	want := DensePartialForwardInto(nil, q, k, v, Full{}, Iota(sq), 0)
	got := PartialForwardInto(nil, q, k, v, Full{}, Iota(sq), 0)
	checkPartialEqual(t, "±0-tied max", got, want)
	for i, mx := range want.M {
		if mx != 0 || math.Signbit(float64(mx)) != (i == 0) {
			t.Fatalf("row %d: max %v (%#x), want the first zero's sign", i, mx, math.Float32bits(mx))
		}
	}
}
