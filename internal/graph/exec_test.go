package graph

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/allocator"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func newTestExecutor(t *testing.T, g *Graph, weights map[int]*tensor.Tensor) *Executor {
	t.Helper()
	e, err := NewExecutor(g, weights, allocator.NewTurbo(allocator.NewDevice()))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The central fusion-correctness test: the fused graph must compute exactly
// what the unfused graph computes, for identical weights. RandomWeights is
// keyed by weight name, so binding each graph its own map gives both the
// same values (TestRandomWeightsDeterministicAcrossGraphVariants).
func TestFusedEqualsUnfusedNumerically(t *testing.T) {
	cfg := testConfig()
	unfused := NewEncoderLayerUnfused(cfg)
	fused := NewEncoderLayerFused(cfg)

	input := tensor.RandN(7, 1, 2, 9, cfg.Hidden)
	seqLens := []int{9, 5}

	exU := newTestExecutor(t, unfused, RandomWeights(unfused, 42))
	outU, _, err := exU.Run(input, seqLens)
	if err != nil {
		t.Fatal(err)
	}
	exF := newTestExecutor(t, fused, RandomWeights(fused, 42))
	outF, _, err := exF.Run(input, seqLens)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AllClose(outU.Data(), outF.Data(), 1e-4, 1e-4) {
		t.Fatalf("fused diverges from unfused: maxdiff=%g", outU.MaxAbsDiff(outF))
	}
}

// Property: fused == unfused across random seeds and shapes.
func TestQuickFusionEquivalence(t *testing.T) {
	cfg := testConfig()
	unfused := NewEncoderLayerUnfused(cfg)
	fused := NewEncoderLayerFused(cfg)
	f := func(seed int64, rawBatch, rawSeq uint8) bool {
		batch := int(rawBatch%3) + 1
		seq := int(rawSeq%12) + 1
		input := tensor.RandN(seed+1, 1, batch, seq, cfg.Hidden)

		exU, err := NewExecutor(unfused, RandomWeights(unfused, seed), allocator.NewTurbo(allocator.NewDevice()))
		if err != nil {
			return false
		}
		exF, err := NewExecutor(fused, RandomWeights(fused, seed), allocator.NewTurbo(allocator.NewDevice()))
		if err != nil {
			return false
		}
		outU, _, err := exU.Run(input, nil)
		if err != nil {
			return false
		}
		outF, _, err := exF.Run(input, nil)
		if err != nil {
			return false
		}
		return testutil.AllClose(outU.Data(), outF.Data(), 1e-3, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Every allocator must yield identical numerics — the planner only moves
// tensors around, never changes values. This is the strongest allocator
// test: a single overlapping byte corrupts the comparison.
func TestExecutorNumericsIndependentOfAllocator(t *testing.T) {
	cfg := testConfig()
	g := NewEncoderLayerFused(cfg)
	weights := RandomWeights(g, 5)
	input := tensor.RandN(11, 1, 2, 17, cfg.Hidden)

	var ref *tensor.Tensor
	for _, alloc := range []allocator.Allocator{
		allocator.NewTurbo(allocator.NewDevice()),
		allocator.NewGSOC(allocator.NewDevice()),
		allocator.NewCaching(allocator.NewDevice()),
		allocator.NewNaiveArena(allocator.NewDevice()),
	} {
		e, err := NewExecutor(g, weights, alloc)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := e.Run(input, nil)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if d := out.MaxAbsDiff(ref); d != 0 {
			t.Fatalf("%s: output differs from reference by %g", alloc.Name(), d)
		}
	}
}

// Repeated variable-length inferences through one executor must stay
// correct while the Turbo allocator grows/shrinks its chunk cache.
func TestExecutorVariableLengthSequence(t *testing.T) {
	cfg := testConfig()
	g := NewEncoderLayerFused(cfg)
	weights := RandomWeights(g, 3)
	e := newTestExecutor(t, g, weights)

	gsocDev := allocator.NewDevice()
	for i, seq := range []int{5, 37, 11, 64, 2, 48} {
		input := tensor.RandN(int64(i), 1, 1, seq, cfg.Hidden)
		out, _, err := e.Run(input, nil)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		// Independent single-shot executor as reference.
		fresh, err := NewExecutor(g, weights, allocator.NewGSOC(gsocDev))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Run(input, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := out.MaxAbsDiff(want); d != 0 {
			t.Fatalf("seq %d: cached-chunk run differs by %g", seq, d)
		}
	}
}

func TestExecutorMasking(t *testing.T) {
	cfg := testConfig()
	g := NewEncoderLayerFused(cfg)
	weights := RandomWeights(g, 9)
	e := newTestExecutor(t, g, weights)

	// A batch where request 0 has true length 4 inside a padded length of 8:
	// its first 4 output rows must match running it alone at seq 4... they
	// won't be bit-identical (padding rows change nothing about valid rows
	// only if masking is right), so check closeness.
	seq := 8
	input := tensor.New(1, seq, cfg.Hidden)
	short := tensor.RandN(21, 1, 1, 4, cfg.Hidden)
	copy(input.Data()[:4*cfg.Hidden], short.Data())

	outPadded, _, err := e.Run(input, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	outShort, _, err := e.Run(short, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.FromSlice(outPadded.Data()[:4*cfg.Hidden], 4*cfg.Hidden)
	want := tensor.FromSlice(outShort.Data(), 4*cfg.Hidden)
	if !testutil.AllClose(got.Data(), want.Data(), 1e-4, 1e-4) {
		t.Fatalf("masked padded run diverges from unpadded run: %g", got.MaxAbsDiff(want))
	}
}

func TestExecutorErrors(t *testing.T) {
	cfg := testConfig()
	g := NewEncoderLayerFused(cfg)
	weights := RandomWeights(g, 1)

	// Missing weight.
	incomplete := map[int]*tensor.Tensor{}
	if _, err := NewExecutor(g, incomplete, allocator.NewTurbo(allocator.NewDevice())); err == nil {
		t.Fatal("expected missing-weight error")
	}

	e := newTestExecutor(t, g, weights)
	// Wrong input rank.
	if _, _, err := e.Run(tensor.New(4, cfg.Hidden), nil); err == nil {
		t.Fatal("expected shape error")
	}
	// Wrong hidden dim.
	if _, _, err := e.Run(tensor.New(1, 4, cfg.Hidden+1), nil); err == nil {
		t.Fatal("expected hidden-dim error")
	}
	// Wrong seqLens count.
	if _, _, err := e.Run(tensor.New(2, 4, cfg.Hidden), []int{4}); err == nil {
		t.Fatal("expected seqLens error")
	}
}

func TestRunStatsPopulated(t *testing.T) {
	cfg := testConfig()
	g := NewEncoderLayerFused(cfg)
	e := newTestExecutor(t, g, RandomWeights(g, 2))
	_, stats, err := e.Run(tensor.RandN(1, 1, 1, 16, cfg.Hidden), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumRecords == 0 || stats.FootprintBytes == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

func TestRandomWeightsDeterministicAcrossGraphVariants(t *testing.T) {
	cfg := testConfig()
	u := NewEncoderLayerUnfused(cfg)
	f := NewEncoderLayerFused(cfg)
	wu := RandomWeights(u, 5)
	wf := RandomWeights(f, 5)
	// Weight values must match by name across graphs.
	byNameU := map[string]*tensor.Tensor{}
	for id, w := range wu {
		byNameU[u.Tensors[id].Name] = w
	}
	for id, w := range wf {
		name := f.Tensors[id].Name
		if byNameU[name].MaxAbsDiff(w) != 0 {
			t.Fatalf("weight %s differs across graph variants", name)
		}
	}
}

// RunStats reports the memory planning of one Run or RunPacked.
type RunStats struct {
	PlanTime       time.Duration
	FootprintBytes int64
	NumRecords     int
}

// Run executes the graph on input [batch, seq, hidden]. seqLens gives each
// request's true length for attention masking (nil means all full-length).
// It returns the output as a fresh tensor plus planning stats.
func (e *Executor) Run(input *tensor.Tensor, seqLens []int) (*tensor.Tensor, RunStats, error) {
	batch, seq := input.Dim(0), input.Dim(1)
	records := e.G.UsageRecords(batch, seq)
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
	out, err := e.RunWithPlan(input, seqLens, plan)
	return out, stats, err
}
