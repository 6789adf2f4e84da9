package reduction

import (
	"testing"

	"repro/internal/cudasim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The timed problem's modulo row access must still produce functionally
// correct output for the rows it materialises.
func TestTimedProblemRepresentativeRowsCorrect(t *testing.T) {
	d := dev()
	g := gridFor(d.Config(), 5000, 64)
	p := NewTimedProblem(5000, 64, g.rowsPerBlock, 3)
	d.LaunchTimed(SoftmaxKernel(d.Config(), SoftmaxTurbo, p))
	// Block 0 processed rows 0..rowsPerBlock-1 of the materialised data.
	want := tensor.FromSlice(append([]float32(nil), p.In...), len(p.In))
	kernels.Softmax(want.Data(), g.rowsPerBlock, 64)
	got := tensor.FromSlice(p.Out, len(p.Out))
	if !testutil.AllClose(got.Data(), want.Data(), 1e-4, 1e-5) {
		t.Fatalf("timed problem rows diverge: %g", got.MaxAbsDiff(want))
	}
}

func TestWithAffineValidation(t *testing.T) {
	p := newProblem(2, 8, make([]float32, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.withAffine(make([]float32, 4), make([]float32, 8))
}

func TestTimedProblemClampsMaterialRows(t *testing.T) {
	p := NewTimedProblem(3, 8, 100, 1)
	if p.availRows != 3 {
		t.Fatalf("availRows = %d, want clamp to 3", p.availRows)
	}
	p2 := NewTimedProblem(3, 8, 0, 1)
	if p2.availRows != 1 {
		t.Fatalf("availRows = %d, want floor 1", p2.availRows)
	}
}

// cuDNN kernel block-per-row: grid size equals the row count.
func TestCuDNNGridShape(t *testing.T) {
	p := NewTimedProblem(123, 64, 1, 1)
	k := SoftmaxKernel(cudasim.TeslaV100(), SoftmaxCuDNN, p)
	if k.GridBlocks != 123 {
		t.Fatalf("cuDNN grid: %d", k.GridBlocks)
	}
	if k.WarpsPerBlk != cuDNNWarps {
		t.Fatalf("cuDNN warps: %d", k.WarpsPerBlk)
	}
	if k.LaunchScale >= 1 {
		t.Fatal("cuDNN should have a lean launch path")
	}
}

// The Turbo kernel must amortise barriers: per-block sync count is at most
// the baseline's divided by nearly the row-batch factor.
func TestTurboSyncAmortisation(t *testing.T) {
	d := dev()
	rows, cols := 2000, 128 // multi-warp blocks: shared memory in play
	base := TimeSoftmax(d, SoftmaxBaseline, rows, cols)
	turbo := TimeSoftmax(d, SoftmaxTurbo, rows, cols)
	if turbo.Stats.Syncs >= base.Stats.Syncs {
		t.Fatalf("turbo syncs %d should be below baseline %d", turbo.Stats.Syncs, base.Stats.Syncs)
	}
	// With X=4 row batching, sync count should shrink by ~4x.
	if float64(turbo.Stats.Syncs) > 0.35*float64(base.Stats.Syncs) {
		t.Fatalf("turbo syncs %d vs baseline %d: expected ~4x reduction", turbo.Stats.Syncs, base.Stats.Syncs)
	}
}

// LayerNorm traffic model: turbo moves 3 passes worth of bytes, baseline 4.
func TestLayerNormTrafficRatio(t *testing.T) {
	d := dev()
	rows, cols := 100000, 768 // deep in the memory-bound regime
	base := TimeLayerNorm(d, LayerNormBaseline, rows, cols)
	turbo := TimeLayerNorm(d, LayerNormTurbo, rows, cols)
	if base.MemoryCycles == 0 || turbo.MemoryCycles == 0 {
		t.Fatal("expected memory-bound results")
	}
	ratio := float64(base.MemoryCycles) / float64(turbo.MemoryCycles)
	if ratio < 1.3 || ratio > 1.4 {
		t.Fatalf("traffic ratio %.3f, want 4/3", ratio)
	}
}

func TestSoftmaxSingleColumn(t *testing.T) {
	// cols=1: softmax of a single element is 1.0 everywhere.
	in := tensor.RandN(5, 1, 7)
	p := newProblem(7, 1, in.Data())
	runSoftmax(dev(), SoftmaxTurbo, p)
	for i, v := range p.Out {
		if v != 1 {
			t.Fatalf("row %d: %v, want 1", i, v)
		}
	}
}
