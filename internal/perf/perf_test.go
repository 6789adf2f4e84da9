package perf

import (
	"testing"
	"time"

	"repro/internal/model"
)

func est() *Estimator { return NewEstimator(RTX2060()) }

func TestGemmTimeMonotone(t *testing.T) {
	e := est()
	p := Turbo()
	small := e.GemmTime(p, 1, 64, 64, 64)
	big := e.GemmTime(p, 1, 512, 512, 512)
	if big <= small {
		t.Fatalf("bigger gemm not slower: %v vs %v", big, small)
	}
	batched := e.GemmTime(p, 8, 64, 64, 64)
	if batched <= small {
		t.Fatal("batched gemm not slower than single")
	}
}

func TestGemmTileQuantisation(t *testing.T) {
	e := est()
	p := Turbo()
	// Within one gemv-class tile, m=1..8 cost nearly the same (FLOP side is
	// padded identically; only the tiny activation-read bytes differ).
	a := e.GemmTime(p, 1, 1, 2048, 2048)
	b := e.GemmTime(p, 1, 8, 2048, 2048)
	if diff := float64(b-a) / float64(a); diff > 0.02 || diff < 0 {
		t.Fatalf("tile padding should nearly equalise m=1 and m=8: %v vs %v", a, b)
	}
	// Ragged m just past a tile boundary pays for the whole tile.
	c := e.GemmTime(p, 1, tileM+1, 512, 512)
	d := e.GemmTime(p, 1, 2*tileM, 512, 512)
	if c != d {
		t.Fatalf("tile padding should equalise m=%d and m=%d: %v vs %v", tileM+1, 2*tileM, c, d)
	}
}

func TestTensorCoreFaster(t *testing.T) {
	e := est()
	fp32 := e.GemmTime(Turbo(), 1, 1024, 1024, 1024)
	tc := e.GemmTime(TurboTC(), 1, 1024, 1024, 1024)
	if tc >= fp32 {
		t.Fatalf("tensor core not faster: %v vs %v", tc, fp32)
	}
}

func TestGemmDegenerateDims(t *testing.T) {
	e := est()
	if d := e.GemmTime(Turbo(), 0, 10, 10, 10); d != Turbo().LaunchOverhead {
		t.Fatalf("zero batch: %v", d)
	}
}

func TestReductionCacheDeterministic(t *testing.T) {
	e := est()
	a := e.SoftmaxTime(Turbo(), 2400, 128)
	b := e.SoftmaxTime(Turbo(), 2400, 128)
	if a != b {
		t.Fatal("cached reduction time changed")
	}
	if a <= Turbo().LaunchOverhead {
		t.Fatal("softmax body time missing")
	}
}

func TestSoftmaxPenaltyApplied(t *testing.T) {
	e := est()
	turbo := e.SoftmaxTime(Turbo(), 120000, 500)
	py := e.SoftmaxTime(PyTorch(), 120000, 500)
	if py < 3*turbo {
		t.Fatalf("PyTorch softmax should be far slower at scale: %v vs %v", py, turbo)
	}
	legacy := e.SoftmaxTime(PyTorchLegacyKernels(), 120000, 500)
	if legacy < 10*turbo {
		t.Fatalf("legacy-kernel softmax should dominate (Table 2): %v vs %v", legacy, turbo)
	}
}

func TestEncoderLatencyMagnitude(t *testing.T) {
	e := est()
	// BERT base at (1, 500) on RTX 2060 lands ~20 ms in the paper (Fig. 9).
	d := e.EncoderLatency(Turbo(), model.BertBase(), 1, 500)
	if d < 10*time.Millisecond || d > 45*time.Millisecond {
		t.Fatalf("BERT (1,500) latency %v outside the plausible window", d)
	}
	short := e.EncoderLatency(Turbo(), model.BertBase(), 1, 10)
	if short > 5*time.Millisecond {
		t.Fatalf("BERT (1,10) latency %v too large", short)
	}
	if short >= d {
		t.Fatal("latency must grow with sequence length")
	}
}

func TestEncoderLatencyMonotoneInBatch(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	prev := time.Duration(0)
	for _, b := range []int{1, 2, 4, 8, 16} {
		d := e.EncoderLatency(Turbo(), cfg, b, 100)
		if d < prev {
			t.Fatalf("batch %d faster than smaller batch: %v < %v", b, d, prev)
		}
		prev = d
	}
}

// Fig. 9 shape: Turbo beats PyTorch everywhere, most at short sequences;
// onnxruntime is close to Turbo.
func TestFig9Shape(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	for _, seq := range []int{10, 100, 500} {
		turbo := e.EncoderLatency(Turbo(), cfg, 1, seq)
		py := e.EncoderLatency(PyTorch(), cfg, 1, seq)
		onnx := e.EncoderLatency(ONNXRuntime(), cfg, 1, seq)
		if py <= turbo {
			t.Fatalf("seq %d: PyTorch (%v) should be slower than Turbo (%v)", seq, py, turbo)
		}
		r := float64(onnx) / float64(turbo)
		if r < 0.85 || r > 1.45 {
			t.Fatalf("seq %d: onnxrt/turbo ratio %.2f outside the paper's band", seq, r)
		}
	}
	// Speedup over PyTorch shrinks as GEMMs dominate.
	shortGain := float64(e.EncoderLatency(PyTorch(), cfg, 1, 10)) / float64(e.EncoderLatency(Turbo(), cfg, 1, 10))
	longGain := float64(e.EncoderLatency(PyTorch(), cfg, 1, 500)) / float64(e.EncoderLatency(Turbo(), cfg, 1, 500))
	if shortGain <= longGain {
		t.Fatalf("speedup should shrink with length: short %.2f long %.2f", shortGain, longGain)
	}
}

// Fig. 14 shape: TensorRT and FasterTransformer are somewhat faster than
// Turbo on fixed-length input; XLA and onnxruntime somewhat slower.
func TestFig14Ordering(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	var sums [5]float64
	grid := []struct{ b, s int }{{1, 40}, {1, 200}, {20, 40}, {20, 200}}
	for _, g := range grid {
		turbo := float64(e.EncoderLatency(Turbo(), cfg, g.b, g.s))
		sums[0] += float64(e.EncoderLatency(PyTorch(), cfg, g.b, g.s)) / turbo
		sums[1] += float64(e.EncoderLatency(ONNXRuntime(), cfg, g.b, g.s)) / turbo
		sums[2] += float64(e.EncoderLatency(TFXLA(), cfg, g.b, g.s)) / turbo
		sums[3] += float64(e.EncoderLatency(FasterTransformer(), cfg, g.b, g.s)) / turbo
		sums[4] += float64(e.EncoderLatency(TensorRT(), cfg, g.b, g.s)) / turbo
	}
	n := float64(len(grid))
	avgPy, avgOnnx, avgXLA, avgFT, avgTRT := sums[0]/n, sums[1]/n, sums[2]/n, sums[3]/n, sums[4]/n
	if avgPy < 1.2 {
		t.Fatalf("avg speedup vs PyTorch %.2f, want >= 1.2", avgPy)
	}
	if avgOnnx < 1.0 || avgOnnx > 1.35 {
		t.Fatalf("avg speedup vs onnxrt %.2f, want ~1.1", avgOnnx)
	}
	if avgXLA < 1.0 || avgXLA > 1.4 {
		t.Fatalf("avg speedup vs XLA %.2f, want ~1.1", avgXLA)
	}
	if avgFT > 1.05 {
		t.Fatalf("FasterTransformer should be at least as fast: %.2f", avgFT)
	}
	if avgTRT > 1.0 {
		t.Fatalf("TensorRT should be faster: %.2f", avgTRT)
	}
}

// Table 2 shape: the PyTorch kernels dominate attention before the
// optimisation and become minor after.
func TestTable2Shape(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	sfB, sfA, lnB, lnA := e.Table2Proportions(cfg, 20, 500)
	if sfB < 0.5 {
		t.Fatalf("(20,500) softmax before = %.2f, want large (paper: 0.91)", sfB)
	}
	if sfA > 0.35 {
		t.Fatalf("(20,500) softmax after = %.2f, want small (paper: 0.15)", sfA)
	}
	if lnB < 0.2 {
		t.Fatalf("(20,500) layernorm before = %.2f, want large (paper: 0.83)", lnB)
	}
	if lnA > 0.2 {
		t.Fatalf("(20,500) layernorm after = %.2f, want small (paper: 0.04)", lnA)
	}
	// Before must exceed after everywhere.
	for _, sh := range []struct{ b, s int }{{1, 10}, {1, 100}, {20, 10}, {20, 100}} {
		sfB, sfA, lnB, lnA := e.Table2Proportions(cfg, sh.b, sh.s)
		if sfB <= sfA || lnB <= lnA {
			t.Fatalf("(%d,%d): before must exceed after: sf %.3f/%.3f ln %.3f/%.3f",
				sh.b, sh.s, sfB, sfA, lnB, lnA)
		}
	}
}

// Fig. 7 shape: batching reduces per-request latency, most for short
// sequences.
func TestFig7BatchingGain(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	shortGain := e.BatchingNormalizedLatency(Turbo(), cfg, 10, 15)
	longGain := e.BatchingNormalizedLatency(Turbo(), cfg, 200, 15)
	if shortGain > 0.5 {
		t.Fatalf("short-seq batching gain too weak: %.2f", shortGain)
	}
	if longGain < shortGain {
		t.Fatalf("long sequences should benefit less: %.2f vs %.2f", longGain, shortGain)
	}
	if longGain > 1.1 {
		t.Fatalf("batching should not hurt much at seq 200: %.2f", longGain)
	}
	// Monotone-ish improvement with batch size at short seq.
	if e.BatchingNormalizedLatency(Turbo(), cfg, 10, 2) < e.BatchingNormalizedLatency(Turbo(), cfg, 10, 15) {
		t.Fatal("larger batches should amortise better at short seq")
	}
}

func TestDecoderLatencyShape(t *testing.T) {
	e := est()
	cfg := model.Seq2SeqDecoder()
	d30 := e.DecoderLatency(Turbo(), cfg, 30)
	d140 := e.DecoderLatency(Turbo(), cfg, 140)
	if d30 >= d140 {
		t.Fatal("decoder latency must grow with source length")
	}
	// Paper's Fig. 9: roughly 100 ms at 30 to 300 ms at 140.
	if d30 < 20*time.Millisecond || d30 > 300*time.Millisecond {
		t.Fatalf("decoder latency at 30 = %v, outside plausible window", d30)
	}
	if d140 < 100*time.Millisecond || d140 > 900*time.Millisecond {
		t.Fatalf("decoder latency at 140 = %v, outside plausible window", d140)
	}
	// PyTorch slower (paper: 1.14–1.20×; our launch-overhead model lands
	// nearer 2.4× — the decoder is dispatch-bound; internal/bench/testdata/fig9.txt).
	r := float64(e.DecoderLatency(PyTorch(), cfg, 100)) / float64(e.DecoderLatency(Turbo(), cfg, 100))
	if r < 1.05 || r > 2.6 {
		t.Fatalf("decoder PyTorch/Turbo ratio %.2f outside band", r)
	}
}

func TestDecoderLatencyPanicsOnEncoderConfig(t *testing.T) {
	e := est()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.DecoderLatency(Turbo(), model.BertBase(), 30)
}

func TestProfilesComplete(t *testing.T) {
	if len(AllProfiles()) != 7 {
		t.Fatalf("profiles: %d", len(AllProfiles()))
	}
	for _, p := range AllProfiles() {
		if p.Name == "" || p.GemmEff <= 0 || p.GemmEff > 1 || p.ElementwiseEff <= 0 {
			t.Fatalf("bad profile %+v", p)
		}
	}
	for _, p := range VariableLengthProfiles() {
		if !p.VariableLength {
			t.Fatalf("%s in variable-length set but not variable-length", p.Name)
		}
	}
}

func TestBatchCostMatchesEncoderLatency(t *testing.T) {
	e := est()
	cfg := model.BertBase()
	if e.BatchCost(Turbo(), cfg, 64, 4) != e.EncoderLatency(Turbo(), cfg, 4, 64) {
		t.Fatal("BatchCost must be the batched encoder latency")
	}
}

func TestGPUConfigs(t *testing.T) {
	for _, g := range []GPU{RTX2060(), TeslaV100(), TeslaM40()} {
		if g.PeakFP32 <= 0 || g.MemBandwidth <= 0 {
			t.Fatalf("bad GPU: %+v", g)
		}
	}
}
