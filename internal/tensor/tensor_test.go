package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	a := New(3, 4)
	if a.Rows() != 3 || a.Cols() != 4 || a.Len() != 12 {
		t.Fatalf("New(3,4): rows=%d cols=%d len=%d", a.Rows(), a.Cols(), a.Len())
	}
	b := New(2, 3, 4)
	if b.Rows() != 2 || b.Cols() != 12 {
		t.Fatalf("New(2,3,4): rows=%d cols=%d", b.Rows(), b.Cols())
	}
}

func TestAtSetRow(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 5)
	if a.At(1, 2) != 5 {
		t.Fatal("At/Set round trip failed")
	}
	row := a.Row(1)
	row[0] = 7
	if a.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestRowSliceAliases(t *testing.T) {
	a := New(4, 2)
	v := a.RowSlice(1, 3)
	if v.Rows() != 2 || v.Cols() != 2 {
		t.Fatalf("RowSlice shape %v", v.Shape)
	}
	v.Set(0, 0, 9)
	if a.At(1, 0) != 9 {
		t.Fatal("RowSlice must be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestReshapeView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(0, 1, 42)
	if a.Data[1] != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong size must panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice size mismatch must panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestElementwise(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Fatalf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.At(0, 0) != 1 {
		t.Fatalf("Sub: %v", a.Data)
	}
	a.Scale(0.5)
	if a.At(0, 0) != 0.5 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	a.Fill(2)
	if a.Sum() != 8 {
		t.Fatal("Fill failed")
	}
	a.AxpyFrom(3, b)
	if a.At(0, 0) != 32 {
		t.Fatalf("AxpyFrom: %v", a.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTAndTMatMulAgreeWithTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(rng, 1, 5, 7)
	b := RandN(rng, 1, 4, 7)
	got := MatMulT(a, b)
	want := MatMul(a, transposed(b))
	if !AllClose(got, want, 1e-5, 1e-6) {
		t.Fatalf("MatMulT diff %v", MaxDiff(got, want))
	}
	d := RandN(rng, 1, 6, 5)
	e := RandN(rng, 1, 6, 4)
	got3 := TMatMul(d, e)
	want3 := MatMul(transposed(d), e)
	if !AllClose(got3, want3, 1e-5, 1e-6) {
		t.Fatalf("TMatMul diff %v", MaxDiff(got3, want3))
	}
}

func TestTMatMulAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandN(rng, 1, 6, 3)
	b := RandN(rng, 1, 6, 4)
	out := New(3, 4)
	TMatMulAcc(out, a, b)
	TMatMulAcc(out, a, b)
	want := TMatMul(a, b).Scale(2)
	if !AllClose(out, want, 1e-5, 1e-6) {
		t.Fatalf("TMatMulAcc diff %v", MaxDiff(out, want))
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul shape mismatch must panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A@B)@C ≈ A@(B@C) — validates consistency of the kernel.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 3, 4)
		b := RandN(rng, 1, 4, 5)
		c := RandN(rng, 1, 5, 2)
		l := MatMul(MatMul(a, b), c)
		r := MatMul(a, MatMul(b, c))
		return AllClose(l, r, 1e-4, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, 1, 4, 6)
		return BitwiseEqual(transposed(transposed(a)), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowProperties(t *testing.T) {
	xs := []float32{1, 2, 3, 4}
	SoftmaxRow(xs)
	var sum float32
	prev := float32(-1)
	for _, v := range xs {
		if v <= prev {
			t.Fatal("softmax must be monotone in its input")
		}
		prev = v
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-6 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestSoftmaxRowMaskedRow(t *testing.T) {
	neg := float32(math.Inf(-1))
	xs := []float32{neg, neg, neg}
	SoftmaxRow(xs)
	for _, v := range xs {
		if v != 0 {
			t.Fatalf("fully masked row must softmax to zeros, got %v", xs)
		}
	}
}

func TestSoftmaxRowLargeValuesStable(t *testing.T) {
	xs := []float32{1000, 1001, 1002}
	SoftmaxRow(xs)
	for _, v := range xs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", xs)
		}
	}
}

func TestConcatSplitRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandN(rng, 1, 6, 8)
	colParts := SplitCols(a, 4)
	if got := ConcatCols(colParts...); !BitwiseEqual(got, a) {
		t.Fatal("SplitCols/ConcatCols must round-trip bitwise")
	}
	rowParts := SplitRows(a, 3)
	if got := ConcatRows(rowParts...); !BitwiseEqual(got, a) {
		t.Fatal("SplitRows/ConcatRows must round-trip bitwise")
	}
}

func TestSplitColsPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitCols must panic when not divisible")
		}
	}()
	SplitCols(New(2, 5), 2)
}

func TestDotAndSum(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if a.Sum() != 6 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestAllCloseAndBitwise(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 2.000001}, 2)
	if !AllClose(a, b, 1e-5, 1e-5) {
		t.Fatal("AllClose should accept tiny differences")
	}
	if BitwiseEqual(a, b) {
		t.Fatal("BitwiseEqual should reject tiny differences")
	}
	if AllClose(a, New(3), 1, 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
	nan := FromSlice([]float32{float32(math.NaN()), 2}, 2)
	if AllClose(nan, nan, 1, 1) {
		t.Fatal("AllClose must reject NaN")
	}
}

func TestRandNDeterministic(t *testing.T) {
	a := RandN(rand.New(rand.NewSource(42)), 1, 4, 4)
	b := RandN(rand.New(rand.NewSource(42)), 1, 4, 4)
	if !BitwiseEqual(a, b) {
		t.Fatal("RandN must be deterministic for a fixed seed")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(rng, 1, 128, 128)
	y := RandN(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(x, y)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(rng, 1, 64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x)
	}
}

func TestMatMulParallelBitwiseEqualsSerial(t *testing.T) {
	// The row-parallel path must match the serial kernel bit for bit: each
	// output row is computed by exactly one goroutine in serial order.
	rng := rand.New(rand.NewSource(9))
	// Big enough to cross the parallel threshold.
	a := RandN(rng, 1, 256, 256)
	b := RandN(rng, 1, 256, 256)
	parallel := MatMul(a, b)
	serial := New(256, 256)
	matmulInto(serial.Data, a.Data, b.Data, 256, 256, 256, true)
	if !BitwiseEqual(parallel, serial) {
		t.Fatal("parallel MatMul must be bitwise identical to serial")
	}
}

func TestSameShapeAndString(t *testing.T) {
	a, b := New(2, 3), New(2, 3)
	if !a.SameShape(b) {
		t.Fatal("identical shapes must match")
	}
	if a.SameShape(New(3, 2)) || a.SameShape(New(2, 3, 1)) {
		t.Fatal("different shapes must not match")
	}
	if a.String() != "Tensor[2 3]" {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestMaxDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 4, 2}, 3)
	if MaxDiff(a, b) != 2 {
		t.Fatalf("MaxDiff = %v", MaxDiff(a, b))
	}
}

func TestSoftmaxRowsAppliesPerRow(t *testing.T) {
	a := FromSlice([]float32{0, 0, 10, 10}, 2, 2)
	SoftmaxRows(a)
	if math.Abs(float64(a.At(0, 0))-0.5) > 1e-6 || math.Abs(float64(a.At(1, 1))-0.5) > 1e-6 {
		t.Fatalf("SoftmaxRows = %v", a.Data)
	}
}
