package reduction

import (
	"testing"
	"testing/quick"

	"repro/internal/cudasim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func dev() *cudasim.Device { return cudasim.NewDevice(cudasim.TeslaV100()) }

// checkSoftmaxFunctional runs impl on a random rows×cols problem and
// compares against the CPU softmax.
func checkSoftmaxFunctional(t *testing.T, impl SoftmaxImpl, rows, cols int, seed int64) {
	t.Helper()
	in := tensor.RandN(seed, 2, rows*cols)
	p := newProblem(rows, cols, in.Data())
	runSoftmax(dev(), impl, p)
	want := tensor.FromSlice(append([]float32(nil), in.Data()...), rows*cols)
	kernels.Softmax(want.Data(), rows, cols)
	got := tensor.FromSlice(p.Out, rows*cols)
	if !testutil.AllClose(got.Data(), want.Data(), 1e-4, 1e-5) {
		t.Fatalf("%v softmax %dx%d diverges from CPU reference (maxdiff %g)",
			impl, rows, cols, got.MaxAbsDiff(want))
	}
}

func TestSoftmaxFunctionalAllImpls(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{1, 1},    // degenerate
		{3, 10},   // sub-warp rows
		{7, 32},   // exactly one warp
		{5, 33},   // boundary lane
		{4, 100},  // multi-warp single tile
		{2, 500},  // the paper's longest sequence
		{9, 1030}, // forces tiles > 1
		{700, 17}, // more rows than concurrent blocks → rowsPerBlock > 1
	}
	for _, impl := range []SoftmaxImpl{SoftmaxBaseline, SoftmaxTurbo, SoftmaxTurboNoILP, SoftmaxCuDNN} {
		for i, sh := range shapes {
			checkSoftmaxFunctional(t, impl, sh.rows, sh.cols, int64(i+1))
		}
	}
}

func checkLayerNormFunctional(t *testing.T, impl LayerNormImpl, rows, cols int, seed int64) {
	t.Helper()
	in := tensor.RandN(seed, 2, rows*cols)
	gamma := tensor.RandUniform(seed+1, 0.5, 1.5, cols)
	beta := tensor.RandN(seed+2, 0.2, cols)
	p := newProblem(rows, cols, in.Data()).withAffine(gamma.Data(), beta.Data())
	runLayerNorm(dev(), impl, p)
	want := tensor.FromSlice(append([]float32(nil), in.Data()...), rows*cols)
	kernels.LayerNorm(want.Data(), gamma.Data(), beta.Data(), rows, cols, lnEps)
	got := tensor.FromSlice(p.Out, rows*cols)
	if !testutil.AllClose(got.Data(), want.Data(), 1e-3, 1e-3) {
		t.Fatalf("%v layernorm %dx%d diverges from CPU reference (maxdiff %g)",
			impl, rows, cols, got.MaxAbsDiff(want))
	}
}

func TestLayerNormFunctionalAllImpls(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{2, 16},
		{3, 32},
		{5, 100},
		{2, 768},  // BERT hidden size
		{4, 1100}, // tiles > 1
		{400, 64}, // rowsPerBlock > 1
	}
	for _, impl := range []LayerNormImpl{LayerNormBaseline, LayerNormTurbo, LayerNormTurboTwoPass} {
		for i, sh := range shapes {
			checkLayerNormFunctional(t, impl, sh.rows, sh.cols, int64(i+10))
		}
	}
}

// Property: all softmax implementations agree with each other on random
// shapes (they must — they compute the same function).
func TestQuickSoftmaxImplsAgree(t *testing.T) {
	f := func(seed int64, rawRows, rawCols uint8) bool {
		rows := int(rawRows%20) + 1
		cols := int(rawCols%120) + 1
		in := tensor.RandN(seed, 1, rows*cols)
		pa := newProblem(rows, cols, in.Data())
		pb := newProblem(rows, cols, in.Data())
		runSoftmax(dev(), SoftmaxBaseline, pa)
		runSoftmax(dev(), SoftmaxTurbo, pb)
		a := tensor.FromSlice(pa.Out, rows*cols)
		b := tensor.FromSlice(pb.Out, rows*cols)
		return testutil.AllClose(a.Data(), b.Data(), 1e-4, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- timing-shape assertions: the paper's qualitative results ----------------

// Table 2 / Fig. 5 regime: with many short rows (batch 20), Turbo must beat
// the classical baseline clearly; the XElem batching is the whole point.
func TestTurboFasterManyShortRows(t *testing.T) {
	d := dev()
	rows, cols := 20*12*60, 60 // (batch 20, seq 60) attention softmax
	base := TimeSoftmax(d, SoftmaxBaseline, rows, cols)
	turbo := TimeSoftmax(d, SoftmaxTurbo, rows, cols)
	speedup := float64(base.Cycles) / float64(turbo.Cycles)
	if speedup < 1.5 {
		t.Fatalf("turbo speedup on many short rows = %.2f, want >= 1.5", speedup)
	}
}

// At (batch 1, short seq) both are launch-bound: speedup must be modest.
func TestTurboModestAtSmallBatch(t *testing.T) {
	d := dev()
	rows, cols := 12*10, 10
	base := TimeSoftmax(d, SoftmaxBaseline, rows, cols)
	turbo := TimeSoftmax(d, SoftmaxTurbo, rows, cols)
	speedup := float64(base.Cycles) / float64(turbo.Cycles)
	if speedup < 0.9 || speedup > 2.2 {
		t.Fatalf("small-batch speedup = %.2f, want ~[0.9,2.2]", speedup)
	}
}

// At (batch 20, seq 500) both should approach the bandwidth bound: speedup
// shrinks towards the traffic ratio (4/3).
func TestTurboBandwidthBoundAtLargeSizes(t *testing.T) {
	d := dev()
	rows, cols := 20*12*500, 500
	base := TimeSoftmax(d, SoftmaxBaseline, rows, cols)
	turbo := TimeSoftmax(d, SoftmaxTurbo, rows, cols)
	if base.MemoryCycles == 0 || base.Cycles < base.MemoryCycles {
		t.Fatal("baseline should be memory-bound at this size")
	}
	speedup := float64(base.Cycles) / float64(turbo.Cycles)
	if speedup < 1.05 || speedup > 1.8 {
		t.Fatalf("large-size speedup = %.2f, want ~[1.05,1.8] (traffic ratio)", speedup)
	}
}

// The ILP ablation: interleaved chains must not be slower than sequential
// chains, and must win where reduction dominates.
func TestInterleaveAblation(t *testing.T) {
	d := dev()
	rows, cols := 20*12*60, 60
	noilp := TimeSoftmax(d, SoftmaxTurboNoILP, rows, cols)
	ilp := TimeSoftmax(d, SoftmaxTurbo, rows, cols)
	if ilp.Cycles > noilp.Cycles {
		t.Fatalf("interleaving made things slower: %d vs %d", ilp.Cycles, noilp.Cycles)
	}
	if ilp.Cycles == noilp.Cycles {
		t.Fatal("interleaving should change timing in the reduction-bound regime")
	}
}

// LayerNorm: the single-pass Eq. 1 kernel must have half the barriers of the
// classical kernel and win at scale.
func TestLayerNormSyncHalved(t *testing.T) {
	d := dev()
	rows, cols := 20*100, 768
	base := TimeLayerNorm(d, LayerNormBaseline, rows, cols)
	turbo := TimeLayerNorm(d, LayerNormTurbo, rows, cols)
	if turbo.Stats.Syncs*2 != base.Stats.Syncs {
		t.Fatalf("turbo syncs %d, baseline %d: want exactly half", turbo.Stats.Syncs, base.Stats.Syncs)
	}
	if turbo.Cycles >= base.Cycles {
		t.Fatalf("turbo layernorm not faster at scale: %d vs %d", turbo.Cycles, base.Cycles)
	}
}

// The Eq. 1 ablation: single-pass must beat two-pass-with-butterfly.
func TestLayerNormEquationOneAblation(t *testing.T) {
	d := dev()
	rows, cols := 20*200, 768
	twoPass := TimeLayerNorm(d, LayerNormTurboTwoPass, rows, cols)
	onePass := TimeLayerNorm(d, LayerNormTurbo, rows, cols)
	if onePass.Cycles >= twoPass.Cycles {
		t.Fatalf("single-pass variance should win: %d vs %d", onePass.Cycles, twoPass.Cycles)
	}
}

// Timing determinism: identical launches must report identical cycles.
func TestTimingDeterministic(t *testing.T) {
	d := dev()
	a := TimeSoftmax(d, SoftmaxTurbo, 2400, 128)
	b := TimeSoftmax(d, SoftmaxTurbo, 2400, 128)
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic timing: %d vs %d", a.Cycles, b.Cycles)
	}
}

// Monotonicity: more rows can never be faster.
func TestMoreRowsNeverFaster(t *testing.T) {
	d := dev()
	prev := int64(0)
	for _, rows := range []int{100, 1000, 10000, 100000} {
		r := TimeSoftmax(d, SoftmaxTurbo, rows, 64)
		if r.Cycles < prev {
			t.Fatalf("rows=%d faster than fewer rows: %d < %d", rows, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}

func TestImplStrings(t *testing.T) {
	if SoftmaxTurbo.String() != "turbo" || SoftmaxBaseline.String() != "baseline" ||
		SoftmaxCuDNN.String() != "cudnn" || SoftmaxTurboNoILP.String() != "turbo-noilp" {
		t.Fatal("softmax impl names")
	}
	if LayerNormTurbo.String() != "turbo" || LayerNormBaseline.String() != "baseline" ||
		LayerNormTurboTwoPass.String() != "turbo-twopass" {
		t.Fatal("layernorm impl names")
	}
}

func TestProblemValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short input")
		}
	}()
	newProblem(4, 4, make([]float32, 3))
}

func TestLayerNormNeedsAffine(t *testing.T) {
	p := newProblem(2, 8, make([]float32, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without gamma/beta")
		}
	}()
	LayerNormKernel(cudasim.TeslaV100(), LayerNormTurbo, p)
}

func TestGridFor(t *testing.T) {
	cfg := cudasim.TeslaV100()
	g := gridFor(cfg, 10, 100)
	if g.blocks != 10 || g.rowsPerBlock != 1 {
		t.Fatalf("small grid: %+v", g)
	}
	if g.warps != 4 || g.tiles != 1 {
		t.Fatalf("warps/tiles for 100 cols: %+v", g)
	}
	big := gridFor(cfg, 1_000_000, 2000)
	if big.blocks != cfg.NumSMs*cfg.BlocksPerSM {
		t.Fatalf("big grid blocks: %+v", big)
	}
	if big.warps != cfg.MaxWarpsPerBlock || big.tiles != 2 {
		t.Fatalf("wide row tiling: %+v", big)
	}
}

// newProblem builds a fully-materialised problem from an input tensor of
// Rows×Cols values (functional mode).
func newProblem(rows, cols int, in []float32) *Problem {
	if len(in) < rows*cols {
		panic("reduction: input shorter than rows*cols")
	}
	return &Problem{
		Rows: rows, Cols: cols,
		In:        in,
		Out:       make([]float32, rows*cols),
		availRows: rows,
	}
}

// withAffine attaches LayerNorm gamma/beta parameters and returns p.
func (p *Problem) withAffine(gamma, beta []float32) *Problem {
	if len(gamma) < p.Cols || len(beta) < p.Cols {
		panic("reduction: gamma/beta shorter than Cols")
	}
	p.Gamma, p.Beta = gamma, beta
	return p
}

// runSoftmax executes the kernel functionally on every block and returns
// the timing result; p.Out holds the softmax values afterwards.
func runSoftmax(dev *cudasim.Device, impl SoftmaxImpl, p *Problem) cudasim.Result {
	return dev.Launch(SoftmaxKernel(dev.Config(), impl, p))
}

// runLayerNorm executes the kernel functionally on every block.
func runLayerNorm(dev *cudasim.Device, impl LayerNormImpl, p *Problem) cudasim.Result {
	return dev.Launch(LayerNormKernel(dev.Config(), impl, p))
}
