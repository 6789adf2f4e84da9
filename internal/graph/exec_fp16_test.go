package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestFusedChainsBitIdenticalToFused: the fused-chain graph (qk_scaled_softmax
// + pv_transpose_back) must be bit-identical to the Fig. 3b fused graph in
// fp32 — the scale folded into GEMM alpha commutes with the softmax's scale
// sweep, and the strided C placement moves elements without touching their
// accumulation. Checked on both the padded and packed routes.
func TestFusedChainsBitIdenticalToFused(t *testing.T) {
	cfg := LayerConfig{Hidden: 24, Heads: 3, Inter: 48}
	fused := NewEncoderLayerFused(cfg)
	chains := NewEncoderLayerFusedChains(cfg)
	if got := chains.NumOps(); got != fused.NumOps()-2 {
		t.Fatalf("fused-chains has %d ops, want %d (two launches fused away)", got, fused.NumOps()-2)
	}
	exF := newTestExecutor(t, fused, RandomWeights(fused, 42))
	exC := newTestExecutor(t, chains, RandomWeights(chains, 42))

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		batch := 1 + rng.Intn(4)
		lens := make([]int, batch)
		for i := range lens {
			lens[i] = 1 + rng.Intn(11)
		}
		packedIn, paddedIn := raggedInput(rng, lens, cfg.Hidden)

		wantPad, _, err := exF.Run(paddedIn, lens)
		if err != nil {
			t.Fatal(err)
		}
		gotPad, _, err := exC.Run(paddedIn, lens)
		if err != nil {
			t.Fatal(err)
		}
		if d := gotPad.MaxAbsDiff(wantPad); d != 0 {
			t.Fatalf("trial %d (lens %v): padded fused-chains diverges from fused by %g", trial, lens, d)
		}

		wantPack, _, err := exF.RunPacked(packedIn)
		if err != nil {
			t.Fatal(err)
		}
		gotPack, _, err := exC.RunPacked(packedIn)
		if err != nil {
			t.Fatal(err)
		}
		if d := gotPack.Data().MaxAbsDiff(wantPack.Data()); d != 0 {
			t.Fatalf("trial %d (lens %v): packed fused-chains diverges from fused by %g", trial, lens, d)
		}
	}
	if exC.FusedLaunches() != 2*2*10 {
		t.Fatalf("fused-chains executor counted %d fused launches, want %d (2 per run, 20 runs)",
			exC.FusedLaunches(), 2*2*10)
	}
	if exF.FusedLaunches() != 0 {
		t.Fatalf("plain fused executor counted %d fused launches, want 0", exF.FusedLaunches())
	}
}

// TestFP16ToleranceVsFP32 is the model-level tolerance oracle: on fuzzed
// mixed-length traffic through the fused-chain graph, the fp16 route's
// outputs must stay within the documented relative-error bound of the fp32
// route — and must NOT be bit-identical (rounding must actually happen).
func TestFP16ToleranceVsFP32(t *testing.T) {
	cfg := LayerConfig{Hidden: 24, Heads: 3, Inter: 48}
	for _, build := range []struct {
		name string
		mk   func(LayerConfig) *Graph
	}{
		{"fused-chains", NewEncoderLayerFusedChains},
		{"fused", NewEncoderLayerFused},
		{"unfused", NewEncoderLayerUnfused},
	} {
		g := build.mk(cfg)
		weights := RandomWeights(g, 23)
		exRef := newTestExecutor(t, g, weights)
		exF16 := newTestExecutor(t, g, weights)
		exF16.EnableFP16()

		rng := rand.New(rand.NewSource(29))
		maxRel := 0.0
		for trial := 0; trial < 6; trial++ {
			batch := 1 + rng.Intn(4)
			lens := make([]int, batch)
			for i := range lens {
				lens[i] = 1 + rng.Intn(13)
			}
			packedIn, _ := raggedInput(rng, lens, cfg.Hidden)
			ref, _, err := exRef.RunPacked(packedIn)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := exF16.RunPacked(packedIn)
			if err != nil {
				t.Fatal(err)
			}
			r, o := ref.Data().Data(), got.Data().Data()
			for i := range o {
				rel := math.Abs(float64(o[i])-float64(r[i])) / (math.Abs(float64(r[i])) + 1e-3)
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
		// LayerNorm renormalisation keeps the error well-bounded; 2e-2 is the
		// documented tolerance (DESIGN.md §2d).
		if maxRel > 2e-2 {
			t.Fatalf("%s: fp16 max relative error %.4g exceeds 2e-2", build.name, maxRel)
		}
		if maxRel == 0 {
			t.Fatalf("%s: fp16 output bit-identical to fp32 — rounding not applied", build.name)
		}
	}
}
