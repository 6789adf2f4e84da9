// Package tensor provides the dense FP32 tensor type used throughout the
// runtime. Tensors are row-major and contiguous; lightweight views are
// supported for leading-axis slicing, which is all the transformer kernels
// need.
//
// The design mirrors the paper's runtime (§4.2): tensors are plain buffers
// whose placement is decided by the memory manager, so Tensor deliberately
// carries no allocator state — it can wrap either a Go slice or a region of
// a simulated device chunk.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major FP32 tensor.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
	name    string
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is negative; zero-sized dimensions are allowed.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: contiguousStrides(shape),
		data:    make([]float32, n),
	}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d != shape volume %d", len(data), n))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: contiguousStrides(shape),
		data:    data,
	}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

func contiguousStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
	return strides
}

// WithName sets a debug name and returns the tensor for chaining.
func (t *Tensor) WithName(name string) *Tensor {
	t.name = name
	return t
}

// Shape returns the tensor shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to all views.
func (t *Tensor) Data() []float32 { return t.data }

// SliceAxis0 returns a view of rows [from,to) along the leading axis.
func (t *Tensor) SliceAxis0(from, to int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: SliceAxis0 on scalar")
	}
	if from < 0 || to > t.shape[0] || from > to {
		panic(fmt.Sprintf("tensor: slice [%d,%d) out of range [0,%d]", from, to, t.shape[0]))
	}
	inner := 1
	for _, d := range t.shape[1:] {
		inner *= d
	}
	shape := append([]int{to - from}, t.shape[1:]...)
	return FromSlice(t.data[from*inner:to*inner], shape...)
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// t and other. Volumes must match.
func (t *Tensor) MaxAbsDiff(other *Tensor) float64 {
	if len(other.data) != len(t.data) {
		panic("tensor: MaxAbsDiff volume mismatch")
	}
	var maxd float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(other.data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// String renders a short description, truncating large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	if t.name != "" {
		fmt.Fprintf(&b, "%s ", t.name)
	}
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	const maxShow = 8
	n := len(t.data)
	show := n
	if show > maxShow {
		show = maxShow
	}
	b.WriteString(" [")
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n > maxShow {
		fmt.Fprintf(&b, " … (%d total)", n)
	}
	b.WriteByte(']')
	return b.String()
}
