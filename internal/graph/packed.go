package graph

import (
	"fmt"
	"math"

	"repro/internal/allocator"
	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Packed (zero-padding) graph execution. The symbolic shape language
// already factors every tensor as Const + BS·(batch·seq) + BSS·(batch·seq²);
// under a ragged batch those two products simply become the batch's true
// totals — Σ len_i tokens and Σ len_i² score elements — so the same graphs,
// lifetimes, and allocators plan packed executions without change: only the
// evaluation point differs. This is what makes the memory plan
// "keyed on total tokens" rather than on batch·maxLen.

// EvalTokens returns the concrete element count for a packed batch with the
// given token totals (the ragged analogue of Eval: batch·seq → totalTokens,
// batch·seq² → sumSqLens).
func (d DimExpr) EvalTokens(totalTokens, sumSqLens int64) int64 {
	return d.Const + d.BS*totalTokens + d.BSS*sumSqLens
}

// UsageRecordsPacked derives Algorithm 1's usage records for a packed batch
// with the given per-request lengths. Sizes shrink from batch·maxLen to the
// true token totals, which is exactly the memory the packed executor
// touches.
func (g *Graph) UsageRecordsPacked(lens []int) []allocator.UsageRecord {
	var tokens, sumSq int64
	for _, n := range lens {
		tokens += int64(n)
		sumSq += int64(n) * int64(n)
	}
	return g.usageRecords(func(e DimExpr) int64 { return e.EvalTokens(tokens, sumSq) })
}

// packedDims carries the ragged-batch geometry through op dispatch.
type packedDims struct {
	lens   []int
	offs   []int // token prefix sums, len(lens)+1
	sqOffs []int // len² prefix sums, len(lens)+1
	tokens int64
	sumSq  int64
}

func newPackedDims(p *tensor.Packed) *packedDims {
	lens := p.Lens()
	d := &packedDims{lens: lens, offs: p.Offsets(), sqOffs: make([]int, len(lens)+1)}
	for i, n := range lens {
		d.sqOffs[i+1] = d.sqOffs[i] + n*n
	}
	d.tokens = int64(p.TotalTokens())
	d.sumSq = int64(d.sqOffs[len(lens)])
	return d
}

// RunPackedWithPlan executes the graph on a packed batch with a
// pre-computed memory plan (the §6.2.2 repeated-structure trick: one plan
// serves every layer of the stack).
func (e *Executor) RunPackedWithPlan(input *tensor.Packed, plan *allocator.Plan) (*tensor.Packed, error) {
	g := e.G
	if input.Cols() != g.Hidden {
		return nil, fmt.Errorf("graph %s: packed input width %d, want %d", g.Name, input.Cols(), g.Hidden)
	}
	pd := newPackedDims(input)

	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	data := func(id int) []float32 {
		t := g.Tensors[id]
		switch t.Kind {
		case TensorInput:
			return input.Data().Data()
		case TensorWeight:
			return e.Weights[id].Data()
		default:
			return plan.TensorData(id, int(t.Elems.EvalTokens(pd.tokens, pd.sumSq)))
		}
	}

	for _, opIdx := range order {
		if err := e.execOpPacked(g.Ops[opIdx], data, pd); err != nil {
			return nil, fmt.Errorf("graph %s op %s: %w", g.Name, g.Ops[opIdx].Name, err)
		}
	}

	out := input.LikePacked(g.Hidden)
	copy(out.Data().Data(), data(g.Output))
	return out, nil
}

// execOpPacked dispatches one op over the ragged layout. Row-wise ops
// (GEMM, bias, activation, residual, layernorm) run through the shared
// execRowOp — a packed batch is just a shorter dense matrix to them, only
// the element-count evaluation point differs. The per-head transposes, the
// attention GEMMs, and the softmax need the packed variants: they compute
// per-request [heads, len_i, len_i] blocks instead of a dense
// [batch, heads, maxLen, maxLen] tensor, and no mask exists anywhere
// because no padding exists.
func (e *Executor) execOpPacked(op *Op, data func(int) []float32, pd *packedDims) error {
	g := e.G
	heads, hd := g.Heads, g.HeadDim
	elems := func(id int) int {
		return int(g.Tensors[id].Elems.EvalTokens(pd.tokens, pd.sumSq))
	}
	if handled, err := e.execRowOp(op, data, elems); handled {
		return err
	}
	ops := e.operands()
	defer ops.release()

	switch op.Kind {
	case OpTransposeForScore:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		kernels.PackedAddBiasTransposeForScore(in, e.zeroBias, pd.lens, pd.offs, heads, hd, out)

	case OpTransposeBack:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		kernels.PackedTransposeBack(in, pd.lens, pd.offs, heads, hd, out)

	case OpSplitAddBiasTranspose:
		qkv := data(op.Inputs[0])
		q, k, v := data(op.Outputs[0]), data(op.Outputs[1]), data(op.Outputs[2])
		kernels.PackedSplitAddBiasTransposeForScore(qkv, e.qkvBias[op], pd.lens, pd.offs, heads, hd, q, k, v)

	case OpBatchedGemmQK:
		out := data(op.Outputs[0])
		q := ops.get(data(op.Inputs[0]))
		k := ops.get(data(op.Inputs[1]))
		blas.GroupedStridedBatchedGemm(false, true, 1, 0, e.attnGroups(pd, q, k, out, true))

	case OpSoftmax:
		in, out := data(op.Inputs[0]), data(op.Outputs[0])
		n := elems(op.Outputs[0])
		copy(out[:n], in[:n])
		scale := float32(1 / math.Sqrt(float64(hd)))
		kernels.PackedScaledSoftmax(out, pd.lens, pd.sqOffs, heads, scale)

	case OpBatchedGemmPV:
		out := data(op.Outputs[0])
		p := ops.get(data(op.Inputs[0]))
		v := ops.get(data(op.Inputs[1]))
		blas.GroupedStridedBatchedGemm(false, false, 1, 0, e.attnGroups(pd, p, v, out, false))

	case OpQKScaledSoftmax:
		// Fused chain, packed form: per-request grouped Q·Kᵀ with the scale
		// in alpha, softmax in place — no score→probs copy, no scale sweep.
		e.fusedLaunches.Add(1)
		out := data(op.Outputs[0])
		scale := float32(1 / math.Sqrt(float64(hd)))
		q := ops.get(data(op.Inputs[0]))
		k := ops.get(data(op.Inputs[1]))
		blas.GroupedStridedBatchedGemm(false, true, scale, 0, e.attnGroups(pd, q, k, out, true))
		kernels.PackedScaledSoftmax(out, pd.lens, pd.sqOffs, heads, 1)

	case OpPVTransposeBack:
		// Fused chain, packed form: per-request probs·V writing token-major
		// [Σlen, H] directly (C stride hd across heads, ldc H across
		// tokens). Bit-identical to batch_gemm4 + packed transpose_back.
		e.fusedLaunches.Add(1)
		out := data(op.Outputs[0])
		p := ops.get(data(op.Inputs[0]))
		v := ops.get(data(op.Inputs[1]))
		blas.GroupedStridedBatchedGemm(false, false, 1, 0, e.pvTransposeBackGroups(pd, p, v, out))

	default:
		return fmt.Errorf("unhandled op kind %v", op.Kind)
	}
	return nil
}

// attnGroups builds the per-request GEMM groups of packed attention: for
// request i, `heads` problems of shape len_i×len_i×headDim (Q·Kᵀ, qk=true)
// or len_i×headDim×len_i (probs·V, qk=false) — the work is Σ len_i² per
// head, not batch·maxLen².
func (e *Executor) attnGroups(pd *packedDims, a, b, c []float32, qk bool) []blas.StridedBatch {
	hd := e.G.HeadDim
	hidden := e.G.Hidden
	heads := e.G.Heads
	groups := make([]blas.StridedBatch, len(pd.lens))
	for i, n := range pd.lens {
		tokBase := pd.offs[i] * hidden
		scoreBase := heads * pd.sqOffs[i]
		g := blas.StridedBatch{Count: heads}
		if qk {
			// scores[heads, n, n] = Q[heads, n, hd] · K[heads, n, hd]ᵀ
			g.M, g.N, g.K = n, n, hd
			g.A, g.Lda, g.StrideA = a[tokBase:], hd, n*hd
			g.B, g.Ldb, g.StrideB = b[tokBase:], hd, n*hd
			g.C, g.Ldc, g.StrideC = c[scoreBase:], n, n*n
		} else {
			// ctx[heads, n, hd] = probs[heads, n, n] · V[heads, n, hd]
			g.M, g.N, g.K = n, hd, n
			g.A, g.Lda, g.StrideA = a[scoreBase:], n, n*n
			g.B, g.Ldb, g.StrideB = b[tokBase:], hd, n*hd
			g.C, g.Ldc, g.StrideC = c[tokBase:], hd, n*hd
		}
		groups[i] = g
	}
	return groups
}

// pvTransposeBackGroups builds the fused probs·V chain's groups: per
// request i, `heads` problems of shape len_i×headDim×len_i whose outputs
// interleave directly into token-major [Σlen, H] layout (ldc hidden across
// tokens, C stride headDim across heads).
func (e *Executor) pvTransposeBackGroups(pd *packedDims, p, v, out []float32) []blas.StridedBatch {
	hd := e.G.HeadDim
	hidden := e.G.Hidden
	heads := e.G.Heads
	groups := make([]blas.StridedBatch, len(pd.lens))
	for i, n := range pd.lens {
		tokBase := pd.offs[i] * hidden
		scoreBase := heads * pd.sqOffs[i]
		groups[i] = blas.StridedBatch{
			M: n, N: hd, K: n,
			A: p[scoreBase:], Lda: n, StrideA: n * n,
			B: v[tokBase:], Ldb: hd, StrideB: n * hd,
			C: out[tokBase:], Ldc: hidden, StrideC: hd,
			Count: heads,
		}
	}
	return groups
}
