package core

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
)

func tinyCfg() model.Config {
	return model.BertBase().Scaled(32, 4, 64, 2)
}

func TestEngineClassifyPipeline(t *testing.T) {
	e, err := NewEngine(tinyCfg(), Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := e.Classify(context.Background(), [][]int{{3, 4, 5, 6}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("preds: %v", preds)
	}
	again, err := e.Classify(context.Background(), [][]int{{3, 4, 5, 6}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if preds[i] != again[i] {
			t.Fatal("classification not deterministic")
		}
	}
}

// Classification of a request must not depend on what it is batched with —
// the property that makes padding+masking correct end to end.
func TestBatchingInvariance(t *testing.T) {
	e, err := NewEngine(tinyCfg(), Options{Seed: 2, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := e.Classify(context.Background(), [][]int{{10, 11, 12}})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := e.Classify(context.Background(), [][]int{{10, 11, 12}, {20, 21, 22, 23, 24, 25, 26, 27}})
	if err != nil {
		t.Fatal(err)
	}
	if solo[0] != batched[0] {
		t.Fatalf("batching changed request 0's class: %d vs %d", solo[0], batched[0])
	}
}

func TestEngineEncodeShapes(t *testing.T) {
	cfg := tinyCfg()
	e, err := NewEngine(cfg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hidden, seqLens, err := e.Encode([][]int{{1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if hidden.Dim(0) != 2 || hidden.Dim(1) != 3 || hidden.Dim(2) != cfg.Hidden {
		t.Fatalf("shape %v", hidden.Shape())
	}
	if seqLens[0] != 2 || seqLens[1] != 3 {
		t.Fatalf("seqLens %v", seqLens)
	}
}

func TestEngineFusedUnfusedAgree(t *testing.T) {
	cfg := tinyCfg()
	fused, err := NewEngine(cfg, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := NewEngine(cfg, Options{Seed: 7, Unfused: true})
	if err != nil {
		t.Fatal(err)
	}
	toks := [][]int{{5, 6, 7, 8, 9}}
	a, _, err := fused.Encode(toks)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := unfused.Encode(toks)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AllClose(a.Data(), b.Data(), 1e-3, 1e-3) {
		t.Fatalf("fused engine diverges from unfused: %g", a.MaxAbsDiff(b))
	}
}

func TestEngineAllocatorKinds(t *testing.T) {
	for _, kind := range []AllocatorKind{AllocTurbo, AllocGSOC, AllocCaching, AllocNaive} {
		e, err := NewEngine(tinyCfg(), Options{Seed: 4, Allocator: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, _, err := e.Encode([][]int{{1, 2, 3}}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.MemoryStats().AllocBytes == 0 {
			t.Fatalf("%s: no device traffic recorded", kind)
		}
	}
	if _, err := NewAllocator("bogus", nil); err == nil {
		t.Fatal("unknown allocator should error")
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := NewEngine(model.Seq2SeqDecoder(), Options{}); err == nil {
		t.Fatal("decoder config should be rejected")
	}
	e, err := NewEngine(tinyCfg(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Classify(context.Background(), [][]int{{1}}); err == nil {
		t.Fatal("classify without head should error")
	}
}
