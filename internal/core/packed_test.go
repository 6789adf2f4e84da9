package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestPackedEngineMatchesPaddedEngine: the engine's live (packed) Classify
// must agree on every fuzzed mixed-length batch with the same engine's
// padded stack — Embedding.Encode → Encoder.Forward, then the classifier
// head over each request's [CLS] row — the reference oracle the padded path
// is kept for.
func TestPackedEngineMatchesPaddedEngine(t *testing.T) {
	cfg := model.BertBase().Scaled(32, 4, 64, 2)
	eng, err := NewEngine(cfg, Options{Seed: 7, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		batch := make([][]int, 1+rng.Intn(5))
		for i := range batch {
			toks := make([]int, 1+rng.Intn(20))
			for j := range toks {
				toks[j] = rng.Intn(cfg.Vocab)
			}
			batch[i] = toks
		}
		hidden, seqLens, err := eng.Embedding.Encode(batch)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := eng.Encoder.Forward(hidden, seqLens)
		if err != nil {
			t.Fatal(err)
		}
		cPad, err := eng.Classifier.PredictPacked(tensor.PackPadded(out, seqLens))
		if err != nil {
			t.Fatal(err)
		}
		cPack, err := eng.Classify(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cPad {
			if cPad[i] != cPack[i] {
				t.Fatalf("trial %d request %d: packed class %d != padded %d",
					trial, i, cPack[i], cPad[i])
			}
		}
	}
}

// TestPackedEngineEncodeReturnsPaddedLayout: Encode runs packed and still
// honours its dense [batch, maxLen, hidden] contract, with padding rows
// exactly zero.
func TestPackedEngineEncodeReturnsPaddedLayout(t *testing.T) {
	cfg := model.BertBase().Scaled(16, 2, 32, 1)
	eng, err := NewEngine(cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, lens, err := eng.Encode([][]int{{5, 6, 7}, {9}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 2 || out.Dim(1) != 3 || out.Dim(2) != cfg.Hidden {
		t.Fatalf("shape %v", out.Shape())
	}
	if lens[0] != 3 || lens[1] != 1 {
		t.Fatalf("lens %v", lens)
	}
	for s := 1; s < 3; s++ {
		for h := 0; h < cfg.Hidden; h++ {
			if out.Data()[(out.Dim(1)+s)*cfg.Hidden+h] != 0 { // row (1, s)
				t.Fatalf("padding row (1,%d) not zero", s)
			}
		}
	}
}
