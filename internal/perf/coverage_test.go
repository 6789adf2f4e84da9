package perf

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/model"
)

func TestDecoderTensorCoreFaster(t *testing.T) {
	e := est()
	cfg := model.Seq2SeqDecoder()
	fp32 := e.DecoderLatency(Turbo(), cfg, 60)
	tc := e.DecoderLatency(TurboTC(), cfg, 60)
	if tc >= fp32 {
		t.Fatalf("TC decoder not faster: %v vs %v", tc, fp32)
	}
}

func TestDecoderCapsAtMaxTargetLen(t *testing.T) {
	e := est()
	cfg := model.Seq2SeqDecoder()
	cfg.MaxTargetLen = 10
	a := e.DecoderLatency(Turbo(), cfg, 10)
	b := e.DecoderLatency(Turbo(), cfg, 1000)
	// Beyond the cap only the cross-attention lengths grow, not the number
	// of decode steps — so latency must grow far slower than source length.
	if float64(b) > 6*float64(a) {
		t.Fatalf("target-length cap not applied: %v vs %v", b, a)
	}
}

func TestBreakdownCoversAllOps(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	for _, p := range []Profile{Turbo(), PyTorch()} {
		breakdown := e.EncoderLayerBreakdown(p, cfg, 1, 64)
		wantOps := 12
		if !p.Fused {
			wantOps = 24
		}
		if len(breakdown) != wantOps {
			t.Fatalf("%s: %d ops, want %d", p.Name, len(breakdown), wantOps)
		}
		for _, ot := range breakdown {
			if ot.Time <= 0 {
				t.Fatalf("%s op %s has non-positive time", p.Name, ot.Name)
			}
		}
	}
}

func TestBreakdownGemmShareGrowsWithLength(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	share := func(seq int) float64 {
		var gemm, total time.Duration
		for _, ot := range e.EncoderLayerBreakdown(Turbo(), cfg, 1, seq) {
			total += ot.Time
			if ot.Kind.IsGemm() {
				gemm += ot.Time
			}
		}
		return float64(gemm) / float64(total)
	}
	if share(400) <= share(20)-0.02 {
		t.Fatalf("GEMM share should not shrink with length: %v vs %v", share(400), share(20))
	}
	if share(20) < 0.5 {
		t.Fatalf("GEMMs should dominate even at seq 20: %v", share(20))
	}
}

func TestElementwiseTimeEdges(t *testing.T) {
	e := est()
	p := Turbo()
	if e.ElementwiseTime(p, 0) != p.LaunchOverhead {
		t.Fatal("zero bytes should cost one launch")
	}
	small := e.ElementwiseTime(p, 1<<10)
	big := e.ElementwiseTime(p, 1<<30)
	if big <= small {
		t.Fatal("more bytes must cost more")
	}
}

func TestReductionTimesDegenerate(t *testing.T) {
	e := est()
	p := Turbo()
	if e.SoftmaxTime(p, 0, 10) != p.LaunchOverhead {
		t.Fatal("zero rows")
	}
	if e.LayerNormTime(p, 10, 0) != p.LaunchOverhead {
		t.Fatal("zero cols")
	}
}

func TestPadDim(t *testing.T) {
	cases := map[int]int{1: 8, 8: 8, 9: 16, 16: 16, 17: 32, 33: 64, 64: 64, 65: 128, 130: 192}
	for in, want := range cases {
		if got := padDim(in, 64); got != want {
			t.Fatalf("padDim(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLayerGraphCacheSharesAcrossEstimators(t *testing.T) {
	a := layerGraph(model.BertBase(), true)
	b := layerGraph(model.BertBase(), true)
	if a != b {
		t.Fatal("layer graphs should be cached")
	}
	c := layerGraph(model.BertBase(), false)
	if a == c {
		t.Fatal("fused and unfused must differ")
	}
	if a.NumOps() == c.NumOps() {
		t.Fatal("fused and unfused op counts must differ")
	}
}

func TestTurboTCInheritsProfile(t *testing.T) {
	tc := TurboTC()
	base := Turbo()
	if !tc.TensorCore || tc.SoftmaxImpl != base.SoftmaxImpl || tc.LaunchOverhead != base.LaunchOverhead {
		t.Fatalf("TC profile: %+v", tc)
	}
}

func TestLegacyKernelProfileSlower(t *testing.T) {
	e := est()
	normal := e.LayerNormTime(PyTorch(), 10000, 768)
	legacy := e.LayerNormTime(PyTorchLegacyKernels(), 10000, 768)
	if legacy <= normal {
		t.Fatal("legacy kernels must be slower than the end-to-end profile")
	}
}

func TestAlbertSlowerThanBert(t *testing.T) {
	e := est()
	bert := e.EncoderLatency(Turbo(), model.BertBase(), 1, 200)
	albert := e.EncoderLatency(Turbo(), model.Albert(), 1, 200)
	distil := e.EncoderLatency(Turbo(), model.DistilBert(), 1, 200)
	if albert < 5*bert {
		t.Fatalf("ALBERT (hidden 4096) should dwarf BERT: %v vs %v", albert, bert)
	}
	if distil >= bert {
		t.Fatalf("DistilBERT should be about half of BERT: %v vs %v", distil, bert)
	}
}

func TestBreakdownPanicsOnUnknownOp(t *testing.T) {
	e := est()
	g := &graph.Graph{Name: "weird", Hidden: 8, Heads: 1, HeadDim: 8, Inter: 8}
	in := g.AddTensor("x", graph.TensorInput, graph.DimExpr{BS: 8})
	out := g.AddTensor("y", graph.TensorOutput, graph.DimExpr{BS: 8})
	g.Input, g.Output = in, out
	g.AddOp(graph.OpKind(99), "mystery", []int{in}, []int{out}, nil, graph.Attr{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// Feed the breakdown loop directly via a fake cache hit.
	graphCachePoison(g)
	e.EncoderLayerBreakdown(Turbo(), model.Config{Name: "weird", Layers: 1, Hidden: 8, Heads: 1, Inter: 8}, 1, 4)
}

// graphCachePoison installs a graph under the key the breakdown will use.
func graphCachePoison(g *graph.Graph) {
	key := layerKey{8, 1, 8, 0, true}
	graphCache.Store(key, g)
}
