// Package tensor provides the dense float32 matrices used by the functional
// layer of the reproduction: a deliberately small, deterministic numeric core
// on which the transformer modules and parallelism schemes are built.
//
// Tensors are row-major. Most of the model mathematics is expressed on 2-D
// tensors ([rows, cols]); attention reshapes via row slicing rather than a
// general N-D engine, which keeps sharding (the subject of the paper) explicit
// in the calling code.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
	view  bool // made by RowSlice or Reshape: shares another tensor's storage
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			// Format a copy: handing shape itself to Sprintf would make the
			// parameter escape, heap-allocating every caller's shape literal.
			panic(fmt.Sprintf("tensor: negative dimension %d in %v", s, append([]int(nil), shape...)))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape.
//
// Aliasing contract: the data is NOT copied — the tensor aliases the slice,
// so mutations through either are visible through both. Callers that need
// an independent tensor must Clone the result.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, have %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// RandN fills a new tensor with N(0, std²) values drawn from rng.
func RandN(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the size of the first dimension.
func (t *Tensor) Rows() int {
	if len(t.Shape) == 0 {
		return 0
	}
	return t.Shape[0]
}

// Cols returns the product of all dimensions after the first, i.e. the row
// stride of a 2-D view.
func (t *Tensor) Cols() int {
	if len(t.Shape) == 0 {
		return 0
	}
	c := 1
	for _, s := range t.Shape[1:] {
		c *= s
	}
	return c
}

// At returns the element of a 2-D tensor at (i, j).
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.Cols()+j] }

// Set assigns the element of a 2-D tensor at (i, j). Test surface: the
// tensor and attention tests build inputs with it.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.Cols()+j] = v }

// Row returns row i of a 2-D tensor as a slice aliasing the tensor's data.
func (t *Tensor) Row(i int) []float32 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// RowSlice returns rows [lo, hi) as a tensor view sharing t's storage.
func (t *Tensor) RowSlice(lo, hi int) *Tensor {
	c := t.Cols()
	shape := append([]int{hi - lo}, t.Shape[1:]...)
	return &Tensor{Shape: shape, Data: t.Data[lo*c : hi*c], view: true}
}

// Clone returns a deep copy. The copy is drawn from the default pool, so
// cloning inside hot loops recycles retired buffers instead of allocating.
func (t *Tensor) Clone() *Tensor {
	return GetClone(t)
}

// Reshape returns a view with a new shape covering the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v mismatched size", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data, view: true}
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether the two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}

// Add computes t += o element-wise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	checkSameLen(t, o, "Add")
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// Sub computes t -= o element-wise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	checkSameLen(t, o, "Sub")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Scale computes t *= a.
func (t *Tensor) Scale(a float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= a
	}
	return t
}

// AxpyFrom computes t += a*o element-wise.
func (t *Tensor) AxpyFrom(a float32, o *Tensor) *Tensor {
	checkSameLen(t, o, "AxpyFrom")
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
	return t
}

// Sum returns the sum of all elements in float64 precision. Test surface:
// tensor_test.go.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Dot returns the float64 inner product of the flattened tensors. Test
// surface: the scalar loss of the gradient checks (model gradCheck and
// TestRoPERelativeProperty, attention TestBackwardGradCheck, vision
// TestViTGradCheck and TestCrossAttentionGradCheck).
func Dot(a, b *Tensor) float64 {
	checkSameLen(a, b, "Dot")
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// MaxAbs returns the largest absolute element value. Test surface: the
// model, fsdp, pp, tp and vision tests check gradients are zero with it.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

func checkSameLen(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// AllClose reports whether every pair of elements differs by at most
// atol + rtol*|b|. Test surface: tensor_test.go's tolerance checks.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		if math.Abs(x-y) > atol+rtol*math.Abs(y) {
			return false
		}
	}
	return true
}

// MaxDiff returns the largest absolute element-wise difference. Test
// surface: the tolerance checks of the comm, tp, cp, core, fsdp, pp, model,
// vision and attention tests.
func MaxDiff(a, b *Tensor) float64 {
	checkSameLen(a, b, "MaxDiff")
	var m float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); d > m {
			m = d
		}
	}
	return m
}

// BitwiseEqual reports exact bit-level equality of all elements — the
// criterion in the paper's §6.2 numerics-debugging methodology. Test
// surface: every bitwise contract in the tree's tests asserts with it.
func BitwiseEqual(a, b *Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
