package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// The batched step must be numerically equivalent to advancing each beam
// with the single-beam step (projections are row-independent).
func TestStepAllMatchesSingleStep(t *testing.T) {
	cfg := tinyDecoder()
	dec, err := NewDecoder(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	memory := tensor.RandN(7, 0.5, 6, cfg.Hidden)
	cc := dec.newCrossCache(memory, false)

	layers := cfg.Layers
	mkStates := func(n int) []*decodeState {
		states := make([]*decodeState, n)
		for i := range states {
			states[i] = &decodeState{
				selfK: make([][]float32, layers),
				selfV: make([][]float32, layers),
			}
		}
		return states
	}

	const beams = 3
	batched := mkStates(beams)
	single := mkStates(beams)
	toks := []int{TokBos, 5, 9}

	// Advance two positions to exercise cache growth.
	for pos := 0; pos < 2; pos++ {
		batchLogits := dec.stepAll(batched, cc, toks, pos)
		for bi := 0; bi < beams; bi++ {
			soloLogits := dec.step(single[bi], cc, toks[bi], pos)
			for j := range soloLogits {
				if d := math.Abs(float64(soloLogits[j] - batchLogits[bi][j])); d > 1e-4 {
					t.Fatalf("pos %d beam %d logit %d: %g vs %g",
						pos, bi, j, soloLogits[j], batchLogits[bi][j])
				}
			}
		}
	}
	// Caches must match too.
	for bi := 0; bi < beams; bi++ {
		for l := 0; l < layers; l++ {
			a := tensor.FromSlice(batched[bi].selfK[l], len(batched[bi].selfK[l]))
			b := tensor.FromSlice(single[bi].selfK[l], len(single[bi].selfK[l]))
			if !a.AllClose(b, 1e-4, 1e-4) {
				t.Fatalf("beam %d layer %d K cache diverges: %g", bi, l, a.MaxAbsDiff(b))
			}
		}
	}
}

func TestStepAllSingleBeamDegenerate(t *testing.T) {
	cfg := tinyDecoder()
	dec, err := NewDecoder(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	memory := tensor.RandN(3, 0.5, 4, cfg.Hidden)
	cc := dec.newCrossCache(memory, false)
	st := &decodeState{
		selfK: make([][]float32, cfg.Layers),
		selfV: make([][]float32, cfg.Layers),
	}
	logits := dec.stepAll([]*decodeState{st}, cc, []int{TokBos}, 0)
	if len(logits) != 1 || len(logits[0]) != cfg.Vocab {
		t.Fatalf("logits shape: %d x %d", len(logits), len(logits[0]))
	}
}

// BeamSearch through the batched path must still beat/equal greedy and stay
// deterministic (regression guard for the batching change).
func TestBeamSearchBatchedStillDeterministic(t *testing.T) {
	cfg := tinyDecoder()
	dec, err := NewDecoder(cfg, 51)
	if err != nil {
		t.Fatal(err)
	}
	memory := tensor.RandN(9, 0.5, 5, cfg.Hidden)
	a, err := dec.BeamSearch(memory, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.BeamSearch(memory, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0].Score != b[0].Score {
		t.Fatal("batched beam search non-deterministic")
	}
}

// TestBeamSearchConcurrentSafe: beam searches share the decoder's decode
// workspace, so concurrent calls must serialise on it — same hypotheses as
// sequential runs, race-clean under -race.
func TestBeamSearchConcurrentSafe(t *testing.T) {
	cfg := tinyDecoder()
	dec, err := NewDecoder(cfg, 91)
	if err != nil {
		t.Fatal(err)
	}
	mems := []*tensor.Tensor{
		tensor.RandN(1, 0.5, 4, cfg.Hidden),
		tensor.RandN(2, 0.5, 7, cfg.Hidden),
		tensor.RandN(3, 0.5, 5, cfg.Hidden),
	}
	want := make([][]Hypothesis, len(mems))
	for i, mem := range mems {
		h, err := dec.BeamSearch(mem, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = h
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(mems)
			got, err := dec.BeamSearch(mems[i], 10)
			if err != nil {
				errs[g] = err
				return
			}
			if len(got) != len(want[i]) || got[0].Score != want[i][0].Score {
				errs[g] = fmt.Errorf("memory %d: concurrent %v vs sequential %v", i, got, want[i])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
