package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/allocator"
	"repro/internal/tensor"
)

// raggedInput builds the same random hidden states in both layouts: packed
// [total, hidden] and zero-padded [batch, maxLen, hidden].
func raggedInput(rng *rand.Rand, lens []int, hidden int) (*tensor.Packed, *tensor.Tensor) {
	p := tensor.NewPacked(lens, hidden)
	d := p.Data().Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	return p, p.ToPadded()
}

// TestPackedExecutorBitIdenticalToPadded is the tentpole invariant: on a
// mixed-length batch the packed path — which never materialises a padding
// row, score column, or mask — must produce bit-identical hidden states to
// the padded path on every valid row, for both the fused and unfused
// graphs.
func TestPackedExecutorBitIdenticalToPadded(t *testing.T) {
	cfg := LayerConfig{Hidden: 24, Heads: 3, Inter: 48}
	for _, build := range []struct {
		name string
		g    *Graph
	}{
		{"fused", NewEncoderLayerFused(cfg)},
		{"unfused", NewEncoderLayerUnfused(cfg)},
	} {
		g := build.g
		weights := RandomWeights(g, 42)
		ex := newTestExecutor(t, g, weights)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 15; trial++ {
			batch := 1 + rng.Intn(5)
			lens := make([]int, batch)
			for i := range lens {
				lens[i] = 1 + rng.Intn(11)
			}
			packedIn, paddedIn := raggedInput(rng, lens, cfg.Hidden)

			paddedOut, _, err := ex.Run(paddedIn, lens)
			if err != nil {
				t.Fatalf("%s padded trial %d: %v", build.name, trial, err)
			}
			packedOut, _, err := ex.RunPacked(packedIn)
			if err != nil {
				t.Fatalf("%s packed trial %d: %v", build.name, trial, err)
			}
			want := tensor.PackPadded(paddedOut, lens)
			if d := packedOut.Data().MaxAbsDiff(want.Data()); d != 0 {
				t.Fatalf("%s trial %d (lens %v): packed diverges from padded, maxdiff=%g",
					build.name, trial, lens, d)
			}
		}
	}
}

// TestPackedPlanSmallerOnSkewedBatch: the packed memory plan is keyed on
// total tokens, so on a skewed batch it must need strictly less memory than
// the padded plan keyed on batch·maxLen.
func TestPackedPlanSmallerOnSkewedBatch(t *testing.T) {
	// Sized so the padded plan spans several 2 MB allocator chunks while the
	// packed plan — an order of magnitude fewer elements — needs fewer.
	g := NewEncoderLayerFused(LayerConfig{Hidden: 256, Heads: 4, Inter: 1024})
	lens := []int{8, 8, 8, 256} // one long straggler pads everyone ×32
	batch, maxLen := len(lens), 256

	alloc := allocator.NewTurbo(allocator.NewDevice())
	packedRecs := g.UsageRecordsPacked(lens)
	paddedRecs := g.UsageRecords(batch, maxLen)
	packedPlan := alloc.Plan(packedRecs)
	if err := allocator.Validate(packedPlan, packedRecs); err != nil {
		t.Fatal(err)
	}
	paddedPlan := alloc.Plan(paddedRecs)
	if err := allocator.Validate(paddedPlan, paddedRecs); err != nil {
		t.Fatal(err)
	}
	if packedPlan.FootprintBytes() >= paddedPlan.FootprintBytes() {
		t.Fatalf("packed footprint %d not below padded %d",
			packedPlan.FootprintBytes(), paddedPlan.FootprintBytes())
	}
}

// TestEvalTokensMatchesEvalOnUniformBatch: on a uniform batch the packed
// evaluation point coincides with the padded one, so the shape language is
// a strict generalisation.
func TestEvalTokensMatchesEvalOnUniformBatch(t *testing.T) {
	e := DimExpr{Const: 7, BS: 3, BSS: 2}
	batch, seq := 4, 9
	tokens := int64(batch * seq)
	sumSq := int64(batch * seq * seq)
	if e.Eval(batch, seq) != e.EvalTokens(tokens, sumSq) {
		t.Fatalf("Eval %d != EvalTokens %d", e.Eval(batch, seq), e.EvalTokens(tokens, sumSq))
	}
}

// TestPackedFP16MatchesPadded: the packed path must honour the fp16
// numeric mode the same way the padded path does — bit for bit, on fuzzed
// mixed-length batches — and only an executor switched to it reports fp16.
func TestPackedFP16MatchesPadded(t *testing.T) {
	cfg := LayerConfig{Hidden: 24, Heads: 3, Inter: 48}
	g := NewEncoderLayerFused(cfg)
	weights := RandomWeights(g, 17)
	ex := newTestExecutor(t, g, weights)
	if ex.fp16 {
		t.Fatal("a fresh executor reports fp16")
	}
	ex.EnableFP16()
	if !ex.fp16 {
		t.Fatal("EnableFP16 did not set fp16")
	}

	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		batch := 1 + rng.Intn(3)
		lens := make([]int, batch)
		for i := range lens {
			lens[i] = 1 + rng.Intn(9)
		}
		packedIn, paddedIn := raggedInput(rng, lens, cfg.Hidden)
		paddedOut, _, err := ex.Run(paddedIn, lens)
		if err != nil {
			t.Fatal(err)
		}
		packedOut, _, err := ex.RunPacked(packedIn)
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.PackPadded(paddedOut, lens)
		if d := packedOut.Data().MaxAbsDiff(want.Data()); d != 0 {
			t.Fatalf("trial %d (lens %v): fp16 packed diverges from fp16 padded by %g", trial, lens, d)
		}
	}
}

// RunPacked executes the graph on a packed batch, planning memory on the
// batch's true token totals.
func (e *Executor) RunPacked(input *tensor.Packed) (*tensor.Packed, RunStats, error) {
	records := e.G.UsageRecordsPacked(input.Lens())
	planStart := time.Now()
	plan := e.Alloc.Plan(records)
	stats := RunStats{
		PlanTime:       time.Since(planStart),
		FootprintBytes: plan.FootprintBytes(),
		NumRecords:     len(records),
	}
	if err := allocator.Validate(plan, records); err != nil {
		return nil, stats, fmt.Errorf("graph %s: allocator %s produced invalid plan: %w",
			e.G.Name, e.Alloc.Name(), err)
	}
	out, err := e.RunPackedWithPlan(input, plan)
	return out, stats, err
}
