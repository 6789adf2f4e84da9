// Package kernels implements the non-GEMM operators of the transformer
// encoder/decoder, in both unfused form (Fig. 3a — what a training framework
// like PyTorch executes) and fused form (Fig. 3b — what the TurboTransformers
// runtime executes). All kernels are CPU-parallel via internal/parallel and
// are validated against each other: every fused kernel must equal the
// composition of its unfused parts.
//
// Like blas, the package fixes every output element's float32 operation
// sequence, whatever computes it (DESIGN.md §2, "the kernel order
// invariant"): expf.go states the exponential under Softmax and GELU as one
// chain per element, lanes_generic.go the softmax row's order, reduce.go
// LayerNorm's single float64 pass. On amd64 the two hot kernels — bias + GELU
// and the softmax row — run that statement four elements at a time in SSE2
// assembly (lanes_amd64.s; -tags purego selects the Go twins), to the same
// bits: lanes_test.go holds the scalar references both builds must match.
//
// Layout conventions (row-major throughout):
//   - hidden states:        [batch, seq, hidden]
//   - per-head activations: [batch, heads, seq, headDim]
//   - attention scores:     [batch, heads, seqQ, seqK]
package kernels

import (
	"math"
	"runtime"

	"repro/internal/parallel"
)

// rowGrain is the minimum number of rows given to one goroutine.
const rowGrain = 8

// AddBias adds bias (length n) to every row of x (rows×n), in place.
func AddBias(x []float32, bias []float32, rows, n int) {
	checkLen("AddBias x", x, rows*n)
	checkLen("AddBias bias", bias, n)
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := x[r*n : (r+1)*n]
			for j, b := range bias {
				row[j] += b
			}
		}
	})
}

// Activation identifies the nonlinearity of the feed-forward network.
type Activation int

// Supported activations. BERT uses GELU; the original transformer used ReLU.
const (
	ActGELU Activation = iota
	ActReLU
	ActTanh
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case ActGELU:
		return "gelu"
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	}
	return "unknown"
}

func applyAct(a Activation, x float32) float32 {
	switch a {
	case ActGELU:
		return gelu(x)
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActTanh:
		return float32(math.Tanh(float64(x)))
	}
	return x
}

// Act applies the activation to x in place.
func Act(a Activation, x []float32) {
	parallel.For(len(x), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = applyAct(a, x[i])
		}
	})
}

// AddBiasAct is the fused bias-add + activation kernel
// ("add bias + activation" in Fig. 3b), applied in place to x (rows×n). The
// activation is chosen once per row, not per element. Where parallel.For
// would run inline anyway — one P, or one goroutine's worth of rows — it runs
// the rows directly and builds no closure, so it allocates nothing.
func AddBiasAct(a Activation, x []float32, bias []float32, rows, n int) {
	checkLen("AddBiasAct x", x, rows*n)
	checkLen("AddBiasAct bias", bias, n)
	bias = bias[:n]
	if rows <= rowGrain || runtime.GOMAXPROCS(0) == 1 {
		addBiasActRows(a, x, bias, 0, rows)
		return
	}
	parallel.For(rows, rowGrain, func(lo, hi int) {
		addBiasActRows(a, x, bias, lo, hi)
	})
}

// addBiasActRows is AddBiasAct on rows [lo,hi) of x, rows len(bias) wide.
func addBiasActRows(a Activation, x, bias []float32, lo, hi int) {
	n := len(bias)
	for r := lo; r < hi; r++ {
		row := x[r*n : (r+1)*n]
		switch a {
		case ActGELU:
			addBiasGelu(row, bias)
		case ActReLU:
			addBiasRelu(row, bias)
		default:
			for j, b := range bias {
				row[j] = applyAct(a, row[j]+b)
			}
		}
	}
}

// addBiasRelu is row[j] = relu(row[j] + bias[j]) with applyAct's comparison:
// x < 0 becomes +0, so −0 and a NaN pass through (max would turn −0 into +0).
// The comparison selects between bit patterns, which compiles to a
// conditional move: an activation's sign is a coin toss, and a branch on it is
// mispredicted half the time.
func addBiasRelu(row, bias []float32) {
	for j, b := range bias {
		v := row[j] + b
		u := math.Float32bits(v)
		if v < 0 {
			u = 0
		}
		row[j] = math.Float32frombits(u)
	}
}

// AddResidual adds res into x element-wise, in place.
func AddResidual(x, res []float32) {
	checkLen("AddResidual res", res, len(x))
	parallel.For(len(x), 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += res[i]
		}
	})
}

func checkLen(what string, s []float32, want int) {
	if len(s) < want {
		panic("kernels: " + what + " too short")
	}
}
