package core

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
)

// The §6.2.1 claim: Tensor-Core FP16 execution "introduces minimal and
// acceptable precision loss to the FP32 version". Verified end-to-end on
// the engine's fp16 route: FP16-operand/FP32-accumulate GEMMs through a
// full encoder stack stay close to the FP32 outputs and do not change
// classifications.
func TestFP16EnginePrecisionLossMinimal(t *testing.T) {
	cfg := model.BertBase().Scaled(64, 4, 256, 4)
	fp32, err := NewEngine(cfg, Options{Seed: 21, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	f16, err := NewEngine(cfg, Options{Seed: 21, Classes: 4, FP16: true})
	if err != nil {
		t.Fatal(err)
	}

	toks := [][]int{
		{5, 9, 13, 17, 21, 25},
		{100, 101, 102},
	}
	a, _, err := fp32.Encode(toks)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := f16.Encode(toks)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsDiff(b) == 0 {
		t.Fatal("fp16 route did not change numerics at all — not plugged in?")
	}
	// Hidden states stay close (the paper's "minimal and acceptable").
	if !testutil.AllClose(a.Data(), b.Data(), 5e-2, 5e-2) {
		t.Fatalf("fp16 precision loss too large: maxdiff %g", a.MaxAbsDiff(b))
	}

	// Classifications are unchanged.
	pa, err := fp32.Classify(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := f16.Classify(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("fp16 changed classification %d: %d vs %d", i, pa[i], pb[i])
		}
	}
}

// The fp16 route must stay deterministic.
func TestFP16EngineDeterministic(t *testing.T) {
	cfg := model.BertBase().Scaled(32, 4, 64, 2)
	e, err := NewEngine(cfg, Options{Seed: 3, FP16: true})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := e.Encode([][]int{{7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.Encode([][]int{{7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("fp16 route non-deterministic")
	}
}
