package graph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Executor runs a graph on real FP32 data: intermediates are placed by the
// configured allocator's plan (so the planner's offsets are exercised by
// actual reads and writes — any overlap bug corrupts the numerics), weights
// are bound by tensor ID, and ops dispatch to internal/kernels.
type Executor struct {
	G       *Graph
	Weights map[int]*tensor.Tensor
	Alloc   allocator.Allocator

	zeroBias []float32 // shared zero bias for unfused transposes
	// qkvBias holds, per OpSplitAddBiasTranspose, the Q, K and V biases
	// concatenated as the kernel takes them.
	qkvBias map[*Op][]float32

	// fp16 selects the binary16 numeric path (Turbo-TC's numerics): GEMM
	// operands are binary16-valued (weights rounded once into halfWeights,
	// activations rounded once per op into pooled scratch) while the GEMMs
	// themselves and their accumulation stay FP32 — exactly what Tensor
	// Cores compute. Set by EnableFP16.
	fp16        bool
	halfWeights map[int]*tensor.Tensor

	fusedLaunches atomic.Int64
}

// NewExecutor validates the graph and the weight binding and returns an
// executor.
func NewExecutor(g *Graph, weights map[int]*tensor.Tensor, alloc allocator.Allocator) (*Executor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, t := range g.Tensors {
		if t.Kind != TensorWeight {
			continue
		}
		w, ok := weights[t.ID]
		if !ok {
			return nil, fmt.Errorf("graph %s: weight %s (tensor %d) not bound", g.Name, t.Name, t.ID)
		}
		if int64(w.NumElements()) != t.Elems.Eval(0, 0) {
			return nil, fmt.Errorf("graph %s: weight %s has %d elements, want %d",
				g.Name, t.Name, w.NumElements(), t.Elems.Eval(0, 0))
		}
	}
	qkvBias := map[*Op][]float32{}
	for _, op := range g.Ops {
		if op.Kind != OpSplitAddBiasTranspose {
			continue
		}
		if len(op.Weights) != 3 {
			return nil, fmt.Errorf("graph %s op %s: needs the Q, K and V biases, has %d weights", g.Name, op.Name, len(op.Weights))
		}
		var bias []float32
		for _, id := range op.Weights {
			bias = append(bias, weights[id].Data()...)
		}
		qkvBias[op] = bias
	}
	return &Executor{
		G:        g,
		Weights:  weights,
		Alloc:    alloc,
		zeroBias: make([]float32, g.Hidden),
		qkvBias:  qkvBias,
	}, nil
}

// EnableFP16 switches GEMMs to the FP16-operand / FP32-accumulate numeric
// path of the Turbo-TC configuration (§6.2.1): weights rounded through
// binary16 once here, activations once at each GEMM boundary, FP32 kernels
// on the binary16-valued result. Idempotent.
func (e *Executor) EnableFP16() {
	if e.fp16 {
		return
	}
	e.fp16 = true
	e.halfWeights = make(map[int]*tensor.Tensor, len(e.Weights))
	for id, w := range e.Weights {
		e.halfWeights[id] = w.RoundedF16()
	}
}

// FusedLaunches returns how many fused-chain kernel launches
// (qk_scaled_softmax, pv_transpose_back) this executor has run. The bench
// compares this against the launch count the unfused graphs would have paid
// to price the fusion win.
func (e *Executor) FusedLaunches() int64 { return e.fusedLaunches.Load() }

// roundScratch pools the binary16-rounded activation copies. Package-level
// (not an executor field) because concurrent RunWithPlan/RunPackedWithPlan
// calls on one executor are legal and must not share scratch.
var roundScratch = sync.Pool{New: func() any { s := make([]float32, 0, 4096); return &s }}

// gemmOperands hands one op the activation buffers to feed its GEMMs: the
// raw data in FP32 mode, or a copy rounded through binary16 (one pass, into
// pooled scratch) on the fp16 route. release returns the copies.
type gemmOperands struct {
	round bool
	pins  [2]*[]float32 // no op feeds more than two activations to GEMMs
	n     int
}

func (e *Executor) operands() gemmOperands { return gemmOperands{round: e.fp16} }

func (o *gemmOperands) get(in []float32) []float32 {
	if !o.round {
		return in
	}
	p := roundScratch.Get().(*[]float32)
	if cap(*p) < len(in) {
		*p = make([]float32, len(in))
	}
	rounded := (*p)[:len(in)]
	tensor.RoundF16Into(rounded, in)
	o.pins[o.n] = p
	o.n++
	return rounded
}

func (o *gemmOperands) release() {
	for _, p := range o.pins[:o.n] {
		roundScratch.Put(p)
	}
	o.n = 0
}

// gemmWeight returns the weight buffer for a GEMM under the current
// numeric mode.
func (e *Executor) gemmWeight(id int) []float32 {
	if e.fp16 {
		return e.halfWeights[id].Data()
	}
	return e.Weights[id].Data()
}

// RunWithPlan executes the graph with a pre-computed memory plan. This is
// the paper's repeated-structure optimisation (§6.2.2): a model with L
// identical layers plans once and reuses the offsets for every layer.
func (e *Executor) RunWithPlan(input *tensor.Tensor, seqLens []int, plan *allocator.Plan) (*tensor.Tensor, error) {
	g := e.G
	if input.Rank() != 3 || input.Dim(2) != g.Hidden {
		return nil, fmt.Errorf("graph %s: input shape %v, want [batch, seq, %d]",
			g.Name, input.Shape(), g.Hidden)
	}
	batch, seq := input.Dim(0), input.Dim(1)
	if seqLens != nil && len(seqLens) != batch {
		return nil, fmt.Errorf("graph %s: %d seqLens for batch %d", g.Name, len(seqLens), batch)
	}

	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	data := func(id int) []float32 {
		t := g.Tensors[id]
		switch t.Kind {
		case TensorInput:
			return input.Data()
		case TensorWeight:
			return e.Weights[id].Data()
		default:
			return plan.TensorData(id, int(t.Elems.Eval(batch, seq)))
		}
	}

	for _, opIdx := range order {
		if err := e.execOp(g.Ops[opIdx], data, batch, seq, seqLens); err != nil {
			return nil, fmt.Errorf("graph %s op %s: %w", g.Name, g.Ops[opIdx].Name, err)
		}
	}

	out := tensor.New(batch, seq, g.Hidden)
	copy(out.Data(), data(g.Output))
	return out, nil
}

// execRowOp executes the ops whose layout is independent of how the batch
// is laid out — GEMMs, bias, activation, residual, layernorm all see a
// dense rows×cols matrix whether the rows are padded batch·seq or packed
// Σ len_i. elems evaluates a tensor's element count at the execution point
// (padded or packed); the return reports whether the op was handled here.
func (e *Executor) execRowOp(op *Op, data func(int) []float32, elems func(int) int) (bool, error) {
	rowsOf := func(id int, cols int) int { return elems(id) / cols }
	ops := e.operands()
	defer ops.release()

	switch op.Kind {
	case OpGemm:
		out := data(op.Outputs[0])
		m := rowsOf(op.Inputs[0], op.Attr.K)
		in := ops.get(data(op.Inputs[0]))
		w := e.gemmWeight(op.Weights[0])
		blas.Gemm(false, false, m, op.Attr.N, op.Attr.K, 1, in, op.Attr.K, w, op.Attr.N, 0, out, op.Attr.N)

	case OpFusedGemmQKV:
		out := data(op.Outputs[0])
		k := op.Attr.K
		m := rowsOf(op.Inputs[0], k)
		in := ops.get(data(op.Inputs[0]))
		switch len(op.Weights) {
		case 1: // pre-concatenated [K, 3H] weight
			w := e.gemmWeight(op.Weights[0])
			blas.Gemm(false, false, m, op.Attr.N, k, 1, in, k, w, op.Attr.N, 0, out, op.Attr.N)
		case 3: // separate Q/K/V weights written into column bands via ldc
			n := op.Attr.N / 3
			for i, wid := range op.Weights {
				blas.Gemm(false, false, m, n, k, 1, in, k, e.gemmWeight(wid), n, 0, out[i*n:], op.Attr.N)
			}
		default:
			return true, fmt.Errorf("fused QKV gemm needs 1 or 3 weights, has %d", len(op.Weights))
		}

	case OpAddBias:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		bias := data(op.Weights[0])
		n := len(bias)
		rows := rowsOf(op.Outputs[0], n)
		copy(out[:rows*n], in[:rows*n])
		kernels.AddBias(out, bias, rows, n)

	case OpActivation:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		n := elems(op.Outputs[0])
		copy(out[:n], in[:n])
		kernels.Act(op.Attr.Act, out[:n])

	case OpAddBiasAct:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		bias := data(op.Weights[0])
		n := len(bias)
		rows := rowsOf(op.Outputs[0], n)
		copy(out[:rows*n], in[:rows*n])
		kernels.AddBiasAct(op.Attr.Act, out, bias, rows, n)

	case OpResidualAdd:
		in, res, out := data(op.Inputs[0]), data(op.Inputs[1]), data(op.Outputs[0])
		n := elems(op.Outputs[0])
		copy(out[:n], in[:n])
		kernels.AddResidual(out[:n], res[:n])

	case OpLayerNorm:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		gamma, beta := data(op.Weights[0]), data(op.Weights[1])
		n := len(gamma)
		rows := rowsOf(op.Outputs[0], n)
		copy(out[:rows*n], in[:rows*n])
		kernels.LayerNorm(out, gamma, beta, rows, n, 1e-5)

	case OpAddBiasLayerNorm:
		in, res, out := data(op.Inputs[0]), data(op.Inputs[1]), data(op.Outputs[0])
		bias, gamma, beta := data(op.Weights[0]), data(op.Weights[1]), data(op.Weights[2])
		n := len(bias)
		rows := rowsOf(op.Outputs[0], n)
		copy(out[:rows*n], in[:rows*n])
		kernels.AddBiasLayerNorm(out, res, bias, gamma, beta, rows, n, 1e-5)

	default:
		return false, nil
	}
	return true, nil
}

func (e *Executor) execOp(op *Op, data func(int) []float32, batch, seq int, seqLens []int) error {
	g := e.G
	H, heads, hd := g.Hidden, g.Heads, g.HeadDim
	elems := func(id int) int { return int(g.Tensors[id].Elems.Eval(batch, seq)) }
	if handled, err := e.execRowOp(op, data, elems); handled {
		return err
	}
	ops := e.operands()
	defer ops.release()

	switch op.Kind {
	case OpTransposeForScore:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		kernels.AddBiasTransposeForScore(in, e.zeroBias, batch, seq, heads, hd, out)

	case OpTransposeBack:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		kernels.TransposeForScore(in, batch, heads, seq, hd, out)

	case OpSplitAddBiasTranspose:
		qkv := data(op.Inputs[0])
		q, k, v := data(op.Outputs[0]), data(op.Outputs[1]), data(op.Outputs[2])
		kernels.SplitAddBiasTransposeForScore(qkv, e.qkvBias[op], batch, seq, heads, hd, q, k, v)

	case OpBatchedGemmQK:
		out := data(op.Outputs[0])
		q := ops.get(data(op.Inputs[0]))
		k := ops.get(data(op.Inputs[1]))
		blas.StridedBatchedGemm(false, true, seq, seq, hd, 1,
			q, hd, seq*hd, k, hd, seq*hd, 0, out, seq, seq*seq, batch*heads)

	case OpSoftmax:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		n := elems(op.Outputs[0])
		copy(out[:n], in[:n])
		scale := float32(1 / math.Sqrt(float64(hd)))
		kernels.MaskedScaledSoftmax(out, batch, heads, seq, seq, scale, seqLens)

	case OpBatchedGemmPV:
		out := data(op.Outputs[0])
		p := ops.get(data(op.Inputs[0]))
		v := ops.get(data(op.Inputs[1]))
		blas.StridedBatchedGemm(false, false, seq, hd, seq, 1,
			p, seq, seq*seq, v, hd, seq*hd, 0, out, hd, seq*hd, batch*heads)

	case OpQKScaledSoftmax:
		// Fused chain: Q·Kᵀ with the softmax scale riding in alpha, then
		// softmax in place on the probability buffer — one launch where the
		// unfused stream pays a GEMM plus a scale sweep plus a softmax.
		e.fusedLaunches.Add(1)
		out := data(op.Outputs[0])
		scale := float32(1 / math.Sqrt(float64(hd)))
		q := ops.get(data(op.Inputs[0]))
		k := ops.get(data(op.Inputs[1]))
		blas.StridedBatchedGemm(false, true, seq, seq, hd, scale,
			q, hd, seq*hd, k, hd, seq*hd, 0, out, seq, seq*seq, batch*heads)
		kernels.MaskedScaledSoftmax(out, batch, heads, seq, seq, 1, seqLens)

	case OpPVTransposeBack:
		// Fused chain: the PV GEMM writes [B,S,H] layout directly through
		// strided C placement (per-batch groups, C stride hd across heads,
		// ldc H across tokens) — no transpose launch, no per-head context
		// intermediate. Accumulation per element is unchanged, so this is
		// bit-identical to batch_gemm4 + transpose_back.
		e.fusedLaunches.Add(1)
		out := data(op.Outputs[0])
		p := ops.get(data(op.Inputs[0]))
		v := ops.get(data(op.Inputs[1]))
		groups := make([]blas.StridedBatch, batch)
		for b := 0; b < batch; b++ {
			groups[b] = blas.StridedBatch{
				M: seq, N: hd, K: seq,
				A: p[b*heads*seq*seq:], Lda: seq, StrideA: seq * seq,
				B: v[b*heads*seq*hd:], Ldb: hd, StrideB: seq * hd,
				C: out[b*seq*H:], Ldc: H, StrideC: hd,
				Count: heads,
			}
		}
		blas.GroupedStridedBatchedGemm(false, false, 1, 0, groups)

	default:
		return fmt.Errorf("unhandled op kind %v", op.Kind)
	}
	return nil
}
