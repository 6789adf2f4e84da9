// Package graph implements the computation-graph layer of the runtime:
// "nodes are operators and edges are tensors" (§4.1.1). It provides
//
//   - symbolic tensor shapes (element counts as functions of batch and
//     sequence length, the key to variable-length-aware planning),
//   - topological ordering and lifetime analysis producing the
//     {first_op, last_op, size} usage records Algorithm 1 consumes,
//   - hand-built encoder layers of Fig. 3: unfused (3a), fused (3b) and
//     fused with the attention core's launch chains collapsed,
//   - an executor that runs a graph on real FP32 tensors through
//     internal/kernels, with intermediates placed by an allocator plan.
package graph

import (
	"fmt"

	"repro/internal/allocator"
	"repro/internal/kernels"
)

// OpKind enumerates the operators of the transformer encoder graphs in
// Fig. 3 (both the unfused 3a set and the fused 3b set).
type OpKind int

const (
	// OpGemm multiplies activations [rows,K] by a weight [K,N].
	OpGemm OpKind = iota
	// OpFusedGemmQKV is the merged Q/K/V projection ("fused gemm0123"),
	// producing [batch, seq, 3*hidden].
	OpFusedGemmQKV
	// OpAddBias adds a bias vector (unfused).
	OpAddBias
	// OpActivation applies the FFN nonlinearity (unfused).
	OpActivation
	// OpAddBiasAct is the fused bias+activation kernel.
	OpAddBiasAct
	// OpResidualAdd adds a residual input (unfused).
	OpResidualAdd
	// OpLayerNorm normalises rows (unfused).
	OpLayerNorm
	// OpAddBiasLayerNorm is the fused bias+residual+layernorm kernel.
	OpAddBiasLayerNorm
	// OpTransposeForScore reshapes [B,S,H] to per-head [B,heads,S,headDim].
	OpTransposeForScore
	// OpTransposeBack reshapes per-head layout back to [B,S,H].
	OpTransposeBack
	// OpSplitAddBiasTranspose splits fused QKV output into per-head Q, K, V
	// with bias addition (the "splitAddBiasTranspose" kernel).
	OpSplitAddBiasTranspose
	// OpBatchedGemmQK computes attention scores Q·Kᵀ per head.
	OpBatchedGemmQK
	// OpSoftmax applies masked, scaled softmax to the scores.
	OpSoftmax
	// OpBatchedGemmPV computes probs·V per head.
	OpBatchedGemmPV
	// OpQKScaledSoftmax is the fused chain Q·Kᵀ → scale → softmax: the
	// softmax scale rides in the GEMM's alpha and the softmax runs in place
	// on the score buffer, collapsing what Fig. 3b still runs as two
	// launches (batched_gemm_qk, softmax) into one.
	OpQKScaledSoftmax
	// OpPVTransposeBack is the fused chain probs·V → transpose_back: the
	// batched GEMM writes its per-head outputs directly into [B,S,H] layout
	// via strided C placement, eliminating the separate transpose launch
	// and the per-head context intermediate.
	OpPVTransposeBack
)

// String returns the operator's display name (matching Fig. 10's labels
// where the paper names them).
func (k OpKind) String() string {
	switch k {
	case OpGemm:
		return "gemm"
	case OpFusedGemmQKV:
		return "fused_gemm012"
	case OpAddBias:
		return "add_bias"
	case OpActivation:
		return "activation"
	case OpAddBiasAct:
		return "add_bias_act"
	case OpResidualAdd:
		return "residual_add"
	case OpLayerNorm:
		return "layernorm"
	case OpAddBiasLayerNorm:
		return "add_bias_layernorm"
	case OpTransposeForScore:
		return "transpose_for_score"
	case OpTransposeBack:
		return "transpose_back"
	case OpSplitAddBiasTranspose:
		return "split_add_bias_transpose"
	case OpBatchedGemmQK:
		return "batched_gemm_qk"
	case OpSoftmax:
		return "softmax"
	case OpBatchedGemmPV:
		return "batched_gemm_pv"
	case OpQKScaledSoftmax:
		return "qk_scaled_softmax"
	case OpPVTransposeBack:
		return "pv_transpose_back"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsGemm reports whether the op is a GEMM-class operator (the distinction
// Fig. 3's fusion rule is built on: fuse everything between two GEMMs).
func (k OpKind) IsGemm() bool {
	switch k {
	case OpGemm, OpFusedGemmQKV, OpBatchedGemmQK, OpBatchedGemmPV,
		OpQKScaledSoftmax, OpPVTransposeBack:
		return true
	}
	return false
}

// DimExpr is a symbolic element count: Const + BS·(batch·seq) +
// BSS·(batch·seq²). Every tensor in the encoder graphs fits this form —
// e.g. attention scores are heads·batch·seq².
type DimExpr struct {
	Const int64
	BS    int64
	BSS   int64
}

// Eval returns the concrete element count for a (batch, seq) pair.
func (d DimExpr) Eval(batch, seq int) int64 {
	b, s := int64(batch), int64(seq)
	return d.Const + d.BS*b*s + d.BSS*b*s*s
}

// TensorKind classifies graph tensors for memory management (§4.2 manages
// "input tensors, intermediate tensors, layer parameters" separately).
type TensorKind int

const (
	// TensorInput is a graph input (externally owned).
	TensorInput TensorKind = iota
	// TensorIntermediate is an activation managed by the allocator.
	TensorIntermediate
	// TensorOutput is the graph output (allocator-managed, lives to the end).
	TensorOutput
	// TensorWeight is a layer parameter (persistent, externally owned).
	TensorWeight
)

// Tensor is a graph edge: a named symbolic-shaped value.
type Tensor struct {
	ID    int
	Name  string
	Elems DimExpr
	Kind  TensorKind
}

// Attr carries the operator attributes the executor and latency model need.
type Attr struct {
	// N and K are the weight dims of OpGemm/OpFusedGemmQKV ([K, N] layout).
	N, K int
	// Act is the nonlinearity of OpActivation / OpAddBiasAct.
	Act kernels.Activation
}

// Op is a graph node.
type Op struct {
	ID      int
	Kind    OpKind
	Name    string
	Inputs  []int // activation tensor IDs
	Outputs []int
	Weights []int // parameter tensor IDs
	Attr    Attr
}

// Graph is a computation graph for one transformer encoder layer (or any
// similar DAG). Hidden/Heads/HeadDim/Inter describe the layer geometry the
// executor needs.
type Graph struct {
	Name    string
	Hidden  int
	Heads   int
	HeadDim int
	Inter   int

	Ops     []*Op
	Tensors []*Tensor

	Input  int // graph input tensor ID
	Output int // graph output tensor ID
}

// AddTensor appends a tensor definition and returns its ID.
func (g *Graph) AddTensor(name string, kind TensorKind, elems DimExpr) int {
	id := len(g.Tensors)
	g.Tensors = append(g.Tensors, &Tensor{ID: id, Name: name, Elems: elems, Kind: kind})
	return id
}

// AddOp appends an op and returns it.
func (g *Graph) AddOp(kind OpKind, name string, inputs, outputs, weights []int, attr Attr) *Op {
	op := &Op{
		ID:      len(g.Ops),
		Kind:    kind,
		Name:    name,
		Inputs:  inputs,
		Outputs: outputs,
		Weights: weights,
		Attr:    attr,
	}
	g.Ops = append(g.Ops, op)
	return op
}

// Producer returns the op producing tensor id, or nil for graph inputs and
// weights.
func (g *Graph) Producer(id int) *Op {
	for _, op := range g.Ops {
		for _, out := range op.Outputs {
			if out == id {
				return op
			}
		}
	}
	return nil
}

// Consumers returns the ops reading tensor id as an activation input.
func (g *Graph) Consumers(id int) []*Op {
	var cs []*Op
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if in == id {
				cs = append(cs, op)
				break
			}
		}
	}
	return cs
}

// TopoOrder returns op indices in topological order (Kahn's algorithm) and
// an error if the graph has a cycle or a dangling reference.
func (g *Graph) TopoOrder() ([]int, error) {
	producerOf := make(map[int]int) // tensor → op index
	for i, op := range g.Ops {
		for _, out := range op.Outputs {
			if p, dup := producerOf[out]; dup {
				return nil, fmt.Errorf("graph %s: tensor %d produced by ops %d and %d", g.Name, out, p, i)
			}
			producerOf[out] = i
		}
	}
	indeg := make([]int, len(g.Ops))
	succ := make([][]int, len(g.Ops))
	for i, op := range g.Ops {
		for _, in := range op.Inputs {
			tk := g.Tensors[in].Kind
			if tk == TensorInput || tk == TensorWeight {
				continue
			}
			p, ok := producerOf[in]
			if !ok {
				return nil, fmt.Errorf("graph %s: op %d (%s) reads unproduced tensor %d (%s)",
					g.Name, i, op.Name, in, g.Tensors[in].Name)
			}
			succ[p] = append(succ[p], i)
			indeg[i]++
		}
	}
	var order []int
	var queue []int
	for i := range g.Ops {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		// Take the lowest-index ready op for determinism.
		minI := 0
		for j := 1; j < len(queue); j++ {
			if queue[j] < queue[minI] {
				minI = j
			}
		}
		n := queue[minI]
		queue = append(queue[:minI], queue[minI+1:]...)
		order = append(order, n)
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Ops) {
		return nil, fmt.Errorf("graph %s: cycle detected", g.Name)
	}
	return order, nil
}

// Validate checks structural invariants: valid tensor references, a single
// producer per tensor, acyclicity, and reachable input/output.
func (g *Graph) Validate() error {
	for _, op := range g.Ops {
		for _, lists := range [][]int{op.Inputs, op.Outputs, op.Weights} {
			for _, id := range lists {
				if id < 0 || id >= len(g.Tensors) {
					return fmt.Errorf("graph %s: op %s references tensor %d out of range", g.Name, op.Name, id)
				}
			}
		}
		for _, wid := range op.Weights {
			if g.Tensors[wid].Kind != TensorWeight {
				return fmt.Errorf("graph %s: op %s weight ref %d is not a weight", g.Name, op.Name, wid)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	if g.Output < 0 || g.Output >= len(g.Tensors) {
		return fmt.Errorf("graph %s: invalid output tensor", g.Name)
	}
	if g.Producer(g.Output) == nil {
		return fmt.Errorf("graph %s: output tensor has no producer", g.Name)
	}
	return nil
}

// UsageRecords derives Algorithm 1's {first_op, last_op, size} records for
// all allocator-managed tensors at a concrete (batch, seq): intermediates
// live from their producer to their last consumer; the graph output lives
// to the final op.
func (g *Graph) UsageRecords(batch, seq int) []allocator.UsageRecord {
	return g.usageRecords(func(e DimExpr) int64 { return e.Eval(batch, seq) })
}

// usageRecords walks lifetimes once; size evaluates each tensor's symbolic
// element count at the execution point (padded or packed).
func (g *Graph) usageRecords(size func(DimExpr) int64) []allocator.UsageRecord {
	order, err := g.TopoOrder()
	if err != nil {
		panic(fmt.Sprintf("graph %s: UsageRecords on invalid graph: %v", g.Name, err))
	}
	pos := make([]int, len(g.Ops))
	for p, opIdx := range order {
		pos[opIdx] = p
	}
	var records []allocator.UsageRecord
	for _, t := range g.Tensors {
		if t.Kind != TensorIntermediate && t.Kind != TensorOutput {
			continue
		}
		prod := g.Producer(t.ID)
		if prod == nil {
			continue
		}
		first := pos[prod.ID]
		last := first
		for _, c := range g.Consumers(t.ID) {
			if p := pos[c.ID]; p > last {
				last = p
			}
		}
		if t.Kind == TensorOutput {
			last = len(g.Ops) - 1
		}
		records = append(records, allocator.UsageRecord{
			TensorID: t.ID,
			Name:     t.Name,
			FirstOp:  first,
			LastOp:   last,
			Size:     size(t.Elems) * 4,
		})
	}
	return records
}

// NumOps returns the operator count (24 unfused, 12 fused, 10 fused-chains).
func (g *Graph) NumOps() int { return len(g.Ops) }
