package model

import (
	"fmt"
	"time"

	"repro/internal/allocator"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Encoder is a stack of transformer encoder layers executed through the
// fused computation-graph runtime. One graph structure is shared by all
// layers (each with its own weight binding), and — as §6.2.2 describes for
// repeated structures — the memory plan is computed once per inference and
// reused for every layer.
type Encoder struct {
	Cfg   Config
	Graph *graph.Graph
	// execs holds one executor per layer (ALBERT shares the same weight
	// binding across all of them).
	execs []*graph.Executor
	alloc allocator.Allocator
}

// EncoderStats aggregates per-inference runtime metrics.
type EncoderStats struct {
	PlanTime       time.Duration
	FootprintBytes int64
}

// NewEncoder builds an encoder with deterministic random weights drawn from
// seed. Pass fused=false to build the unfused (training-framework-style)
// graph for comparisons.
func NewEncoder(cfg Config, seed int64, alloc allocator.Allocator, fused bool) (*Encoder, error) {
	build := graph.NewEncoderLayerUnfused
	if fused {
		build = graph.NewEncoderLayerFused
	}
	return newEncoderWith(cfg, seed, alloc, build)
}

// NewEncoderFusedChains builds the encoder on the fused-chain graph — the
// Fig. 3b fused kernels with the attention core further collapsed to
// qk_scaled_softmax + pv_transpose_back (two launches fewer per layer).
// This is the graph the fp16 fast path serves on.
func NewEncoderFusedChains(cfg Config, seed int64, alloc allocator.Allocator) (*Encoder, error) {
	return newEncoderWith(cfg, seed, alloc, graph.NewEncoderLayerFusedChains)
}

func newEncoderWith(cfg Config, seed int64, alloc allocator.Allocator, build func(graph.LayerConfig) *graph.Graph) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IsDecoder {
		return nil, fmt.Errorf("model %s: use NewDecoder for decoder configs", cfg.Name)
	}
	g := build(cfg.LayerConfig())
	e := &Encoder{Cfg: cfg, Graph: g, alloc: alloc}
	shared := graph.RandomWeights(g, seed)
	for l := 0; l < cfg.Layers; l++ {
		weights := shared
		if !cfg.ShareLayers && l > 0 {
			weights = graph.RandomWeights(g, seed+int64(l)*1000)
		}
		ex, err := graph.NewExecutor(g, weights, alloc)
		if err != nil {
			return nil, err
		}
		e.execs = append(e.execs, ex)
	}
	return e, nil
}

// Forward runs the full encoder stack on hidden states
// [batch, seq, hidden]. seqLens carries each request's true length for
// attention masking (nil = all full length). Memory offsets are planned
// once and reused across all layers (the §6.2.2 repeated-structure trick).
func (e *Encoder) Forward(hidden *tensor.Tensor, seqLens []int) (*tensor.Tensor, EncoderStats, error) {
	batch, seq := hidden.Dim(0), hidden.Dim(1)
	records := e.Graph.UsageRecords(batch, seq)
	planStart := time.Now()
	plan := e.alloc.Plan(records)
	stats := EncoderStats{
		PlanTime:       time.Since(planStart),
		FootprintBytes: plan.FootprintBytes(),
	}
	if err := allocator.Validate(plan, records); err != nil {
		return nil, stats, fmt.Errorf("model %s: invalid plan from %s: %w", e.Cfg.Name, e.alloc.Name(), err)
	}
	x := hidden
	for l, ex := range e.execs {
		out, err := ex.RunWithPlan(x, seqLens, plan)
		if err != nil {
			return nil, stats, fmt.Errorf("layer %d: %w", l, err)
		}
		x = out
	}
	return x, stats, nil
}

// ForwardPacked runs the full encoder stack on a packed (zero-padding)
// batch. The memory plan is keyed on the batch's true token totals —
// Σ len_i and Σ len_i² — rather than batch·maxLen, and is still planned
// once and reused across all layers.
func (e *Encoder) ForwardPacked(hidden *tensor.Packed) (*tensor.Packed, EncoderStats, error) {
	records := e.Graph.UsageRecordsPacked(hidden.Lens())
	planStart := time.Now()
	plan := e.alloc.Plan(records)
	stats := EncoderStats{
		PlanTime:       time.Since(planStart),
		FootprintBytes: plan.FootprintBytes(),
	}
	if err := allocator.Validate(plan, records); err != nil {
		return nil, stats, fmt.Errorf("model %s: invalid packed plan from %s: %w", e.Cfg.Name, e.alloc.Name(), err)
	}
	x := hidden
	for l, ex := range e.execs {
		out, err := ex.RunPackedWithPlan(x, plan)
		if err != nil {
			return nil, stats, fmt.Errorf("layer %d (packed): %w", l, err)
		}
		x = out
	}
	return x, stats, nil
}

// EnableFP16 switches every layer to the binary16 fast path, the Turbo-TC
// numeric behaviour (§6.2.1): weights rounded once, activations rounded at
// each GEMM boundary, fp32 accumulation.
func (e *Encoder) EnableFP16() {
	for _, ex := range e.execs {
		ex.EnableFP16()
	}
}

// FusedLaunches sums the fused-chain kernel launches across the stack's
// executors (0 unless the encoder runs the fused-chain graph).
func (e *Encoder) FusedLaunches() int64 {
	var n int64
	for _, ex := range e.execs {
		n += ex.FusedLaunches()
	}
	return n
}
