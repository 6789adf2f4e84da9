package reduction

import (
	"repro/internal/cudasim"
	"repro/internal/tensor"
)

// Problem is a batch-reduction workload: Rows independent 1-D arrays of
// Cols elements ("reduce a batch of 1-D arrays in parallel", §4.1.2).
// For softmax Rows = batch·heads·seqQ and Cols = seqK; for LayerNorm
// Rows = batch·seq and Cols = hidden.
type Problem struct {
	Rows, Cols int
	In, Out    []float32

	// Gamma and Beta are the LayerNorm affine parameters (length Cols).
	// Softmax kernels ignore them.
	Gamma, Beta []float32

	// availRows is how many distinct rows of In/Out are materialised.
	// Functional runs materialise all of them; timing-only runs materialise
	// just the representative block's share and index modulo availRows.
	availRows int
}

// NewTimedProblem builds a problem that only materialises materialRows rows
// of seeded random data — enough for the representative block to execute
// functionally while the grid schedule is extrapolated (Device.LaunchTimed).
func NewTimedProblem(rows, cols, materialRows int, seed int64) *Problem {
	if materialRows > rows {
		materialRows = rows
	}
	if materialRows < 1 {
		materialRows = 1
	}
	in := tensor.RandN(seed, 1, materialRows*cols)
	return &Problem{
		Rows: rows, Cols: cols,
		In:        in.Data(),
		Out:       make([]float32, materialRows*cols),
		Gamma:     tensor.RandUniform(seed+1, 0.5, 1.5, cols).Data(),
		Beta:      tensor.RandN(seed+2, 0.1, cols).Data(),
		availRows: materialRows,
	}
}

// rowIn returns the input row for global row index r.
func (p *Problem) rowIn(r int) []float32 {
	r %= p.availRows
	return p.In[r*p.Cols : (r+1)*p.Cols]
}

// rowOut returns the output row for global row index r.
func (p *Problem) rowOut(r int) []float32 {
	r %= p.availRows
	return p.Out[r*p.Cols : (r+1)*p.Cols]
}

// grid describes how a batched-reduction kernel tiles the problem.
type grid struct {
	blocks       int // thread blocks in the launch
	rowsPerBlock int // rows each block processes sequentially
	warps        int // warps per block cooperating on one row
	tiles        int // column tiles of warps*32 covering Cols
}

// gridFor sizes the launch the way the paper describes: split on the batch
// dimension across SMs (blocks), with each block sequentially reducing its
// n rows. Both the baseline and the Turbo kernels use the same launch shape;
// they differ only in the per-block algorithm.
func gridFor(cfg cudasim.Config, rows, cols int) grid {
	concurrent := cfg.NumSMs * cfg.BlocksPerSM
	blocks := rows
	if blocks > concurrent {
		blocks = concurrent
	}
	g := grid{
		blocks:       blocks,
		rowsPerBlock: (rows + blocks - 1) / blocks,
	}
	g.warps = (cols + cfg.WarpSize - 1) / cfg.WarpSize
	if g.warps > cfg.MaxWarpsPerBlock {
		g.warps = cfg.MaxWarpsPerBlock
	}
	if g.warps < 1 {
		g.warps = 1
	}
	span := g.warps * cfg.WarpSize
	g.tiles = (cols + span - 1) / span
	return g
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
