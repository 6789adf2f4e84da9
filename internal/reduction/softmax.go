package reduction

import (
	"fmt"

	"repro/internal/cudasim"
)

// SoftmaxImpl selects a softmax kernel implementation for the simulator.
type SoftmaxImpl int

const (
	// SoftmaxBaseline is the classical implementation adopted by
	// FasterTransformer (top of Fig. 4): per-row two-pass blockReduce with
	// down-shuffles, a shared-memory round and two barriers per reduction,
	// and per-access boundary handling. Each pass reloads the row.
	SoftmaxBaseline SoftmaxImpl = iota
	// SoftmaxTurbo is the paper's kernel (bottom of Fig. 4): X rows batched
	// per group, butterfly all-reduce with interleaved shuffle chains,
	// merged boundary checks, one barrier amortised over X rows, and the
	// exp values kept in registers between the sum and normalise passes
	// when the row fits in the block's registers.
	SoftmaxTurbo
	// SoftmaxTurboNoILP is the Turbo kernel with chain interleaving disabled
	// (ablation isolating the instruction-level-parallelism contribution).
	SoftmaxTurboNoILP
	// SoftmaxCuDNN models the generic library softmax the paper benchmarks
	// against (cuDNN v7.5): block-per-row with a fixed small block, separate
	// exp materialisation to global memory, generic stride arithmetic, and a
	// leaner launch path.
	SoftmaxCuDNN
)

// String returns the implementation's display name.
func (s SoftmaxImpl) String() string {
	switch s {
	case SoftmaxBaseline:
		return "baseline"
	case SoftmaxTurbo:
		return "turbo"
	case SoftmaxTurboNoILP:
		return "turbo-noilp"
	case SoftmaxCuDNN:
		return "cudnn"
	}
	return fmt.Sprintf("SoftmaxImpl(%d)", int(s))
}

// SoftmaxKernel builds the simulator kernel for the chosen implementation.
func SoftmaxKernel(cfg cudasim.Config, impl SoftmaxImpl, p *Problem) cudasim.Kernel {
	switch impl {
	case SoftmaxBaseline:
		return softmaxBaselineKernel(cfg, p)
	case SoftmaxTurbo:
		return softmaxTurboKernel(cfg, p, true)
	case SoftmaxTurboNoILP:
		return softmaxTurboKernel(cfg, p, false)
	case SoftmaxCuDNN:
		return softmaxCuDNNKernel(cfg, p)
	}
	panic("reduction: unknown softmax impl")
}

// TimeSoftmax builds a minimally-materialised problem for the given shape
// and returns the extrapolated timing (representative-block execution).
func TimeSoftmax(dev *cudasim.Device, impl SoftmaxImpl, rows, cols int) cudasim.Result {
	g := gridFor(dev.Config(), rows, cols)
	p := NewTimedProblem(rows, cols, g.rowsPerBlock, 1)
	return dev.LaunchTimed(SoftmaxKernel(dev.Config(), impl, p))
}

// --- baseline (FasterTransformer classical) ---------------------------------

func softmaxBaselineKernel(cfg cudasim.Config, p *Problem) cudasim.Kernel {
	g := gridFor(cfg, p.Rows, p.Cols)
	cols := p.Cols
	// Traffic: three passes each reload the row, one writes: 3R + 1W.
	bytes := int64(p.Rows) * int64(cols) * 4 * 4
	program := func(b *cudasim.Block) {
		W := g.warps
		for local := 0; local < g.rowsPerBlock; local++ {
			r := b.Idx()*g.rowsPerBlock + local
			if r >= p.Rows {
				break
			}
			in, out := p.rowIn(r), p.rowOut(r)

			// Pass 1: row maximum via two-pass blockReduce.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.Splat(regAcc0, negInf)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					w.LoadGlobal(regSeg0, in, off, count, negInf, true)
					w.Max(regAcc0, regAcc0, regSeg0)
				}
				warpReduce(w, opMax, regAcc0, regTmp0)
				w.StoreSharedLane(regAcc0, 0, wi)
			}
			b.Sync()
			w0 := b.Warp(0)
			w0.LoadShared(regAux0, 0, W, negInf)
			warpReduce(w0, opMax, regAux0, regTmp0)
			w0.StoreSharedLane(regAux0, 0, W) // shared[W] = row max
			b.Sync()

			// Pass 2: sum of exp(x - max), reloading the row.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.LoadSharedBroadcast(regAux1, W)
				w.Splat(regAcc0, 0)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					w.LoadGlobal(regSeg0, in, off, count, negInf, true)
					w.Sub(regSeg0, regSeg0, regAux1)
					w.Exp(regSeg0, regSeg0)
					w.Add(regAcc0, regAcc0, regSeg0)
				}
				warpReduce(w, opSum, regAcc0, regTmp0)
				w.StoreSharedLane(regAcc0, 0, wi)
			}
			b.Sync()
			w0.LoadShared(regAux0, 0, W, 0)
			warpReduce(w0, opSum, regAux0, regTmp0)
			w0.StoreSharedLane(regAux0, 0, W+1) // shared[W+1] = row sum
			b.Sync()

			// Pass 3: normalise, reloading the row a third time.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.LoadSharedBroadcast(regAux0, W)   // max
				w.LoadSharedBroadcast(regAux1, W+1) // sum
				w.Rcp(regAux2, regAux1)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					w.LoadGlobal(regSeg0, in, off, count, negInf, true)
					w.Sub(regSeg0, regSeg0, regAux0)
					w.Exp(regSeg0, regSeg0)
					w.Mul(regSeg0, regSeg0, regAux2)
					w.StoreGlobal(regSeg0, out, off, count, true)
				}
			}
		}
	}
	return cudasim.Kernel{
		Name:        "softmax-baseline",
		GridBlocks:  g.blocks,
		WarpsPerBlk: g.warps,
		SharedWords: g.warps + 2,
		Program:     program,
		BytesMoved:  bytes,
	}
}

// --- Turbo (warpAllReduceSum_XElem) ------------------------------------------

func softmaxTurboKernel(cfg cudasim.Config, p *Problem, interleave bool) cudasim.Kernel {
	g := gridFor(cfg, p.Rows, p.Cols)
	cols := p.Cols
	// Traffic: max pass reads, exp+sum pass reads; normalise writes from
	// registers when the row fits in the block (tiles==1), otherwise it
	// reloads: 2R+1W fused, 3R+1W tiled.
	units := int64(3)
	if g.tiles > 1 {
		units = 4
	}
	bytes := int64(p.Rows) * int64(cols) * 4 * units

	reduceX := warpAllReduceX
	if !interleave {
		reduceX = warpAllReduceXSequential
	}
	name := "softmax-turbo"
	if !interleave {
		name = "softmax-turbo-noilp"
	}

	segs := []cudasim.Reg{regSeg0, regSeg1, regSeg2, regSeg3}
	accs := []cudasim.Reg{regAcc0, regAcc1, regAcc2, regAcc3}
	tmps := []cudasim.Reg{regTmp0, regTmp1, regTmp2, regTmp3}
	auxs := []cudasim.Reg{regAux0, regAux1, regAux2, regAux3}

	program := func(b *cudasim.Block) {
		W := g.warps
		skipShared := W == 1 // butterfly result is already block-wide
		for g0 := 0; g0 < g.rowsPerBlock; g0 += MaxX {
			base := b.Idx()*g.rowsPerBlock + g0
			if base >= p.Rows {
				break
			}
			xn := minInt(MaxX, g.rowsPerBlock-g0)
			if base+xn > p.Rows {
				xn = p.Rows - base
			}
			ins := make([][]float32, xn)
			outs := make([][]float32, xn)
			for x := 0; x < xn; x++ {
				ins[x] = p.rowIn(base + x)
				outs[x] = p.rowOut(base + x)
			}

			// Pass 1: X row maxima together.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				for x := 0; x < xn; x++ {
					w.Splat(accs[x], negInf)
				}
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					if count < cfg.WarpSize {
						w.ChargeBoundary() // one merged check for all X rows
					}
					for x := 0; x < xn; x++ {
						w.LoadGlobal(segs[x], ins[x], off, count, negInf, false)
					}
					for x := 0; x < xn; x++ {
						w.Max(accs[x], accs[x], segs[x])
					}
				}
				reduceX(w, opMax, accs[:xn], tmps[:xn])
				if !skipShared {
					for x := 0; x < xn; x++ {
						w.StoreSharedLane(accs[x], 0, x*W+wi)
					}
				}
			}
			if !skipShared {
				b.Sync() // one barrier for X rows
				for x := 0; x < xn; x++ {
					fw := b.Warp(x % W)
					fw.LoadShared(regAux0, x*W, W, negInf)
					warpAllReduce(fw, opMax, regAux0, regTmp0)
					fw.StoreSharedLane(regAux0, 0, MaxX*W+x)
				}
				b.Sync()
			}

			// Pass 2: sum of exp. Row maxima land in auxs[x].
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				for x := 0; x < xn; x++ {
					if skipShared {
						w.Mov(auxs[x], accs[x])
					} else {
						w.LoadSharedBroadcast(auxs[x], MaxX*W+x)
					}
				}
				for x := 0; x < xn; x++ {
					w.Splat(accs[x], 0)
				}
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					if count < cfg.WarpSize {
						w.ChargeBoundary()
					}
					for x := 0; x < xn; x++ {
						w.LoadGlobal(segs[x], ins[x], off, count, negInf, false)
					}
					for x := 0; x < xn; x++ {
						w.Sub(segs[x], segs[x], auxs[x])
						w.Exp(segs[x], segs[x])
					}
					for x := 0; x < xn; x++ {
						w.Add(accs[x], accs[x], segs[x])
					}
				}
				reduceX(w, opSum, accs[:xn], tmps[:xn])
				if !skipShared {
					for x := 0; x < xn; x++ {
						w.StoreSharedLane(accs[x], 0, x*W+wi)
					}
				}
			}
			if !skipShared {
				b.Sync()
				for x := 0; x < xn; x++ {
					fw := b.Warp(x % W)
					fw.LoadShared(regAux0, x*W, W, 0)
					warpAllReduce(fw, opSum, regAux0, regTmp0)
					fw.StoreSharedLane(regAux0, 0, MaxX*W+MaxX+x)
				}
				b.Sync()
			}

			// Pass 3: normalise. With tiles==1 the exp values are still in
			// segs[x] registers, so no reload is needed.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				for x := 0; x < xn; x++ {
					if skipShared {
						w.Rcp(tmps[x], accs[x])
					} else {
						w.LoadSharedBroadcast(tmps[x], MaxX*W+MaxX+x)
						w.Rcp(tmps[x], tmps[x])
						if g.tiles > 1 {
							// The reload path subtracts the row max again;
							// the finalise step clobbered some warps' aux
							// registers, so re-broadcast it from shared.
							w.LoadSharedBroadcast(auxs[x], MaxX*W+x)
						}
					}
				}
				if g.tiles == 1 {
					off := wi * cfg.WarpSize
					if off < cols {
						count := minInt(cfg.WarpSize, cols-off)
						if count < cfg.WarpSize {
							w.ChargeBoundary()
						}
						for x := 0; x < xn; x++ {
							w.Mul(segs[x], segs[x], tmps[x])
							w.StoreGlobal(segs[x], outs[x], off, count, false)
						}
					}
					continue
				}
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					if count < cfg.WarpSize {
						w.ChargeBoundary()
					}
					for x := 0; x < xn; x++ {
						w.LoadGlobal(segs[x], ins[x], off, count, negInf, false)
						w.Sub(segs[x], segs[x], auxs[x])
						w.Exp(segs[x], segs[x])
						w.Mul(segs[x], segs[x], tmps[x])
						w.StoreGlobal(segs[x], outs[x], off, count, false)
					}
				}
			}
		}
	}
	return cudasim.Kernel{
		Name:        name,
		GridBlocks:  g.blocks,
		WarpsPerBlk: g.warps,
		SharedWords: MaxX*g.warps + 2*MaxX,
		Program:     program,
		BytesMoved:  bytes,
	}
}

// --- cuDNN-style generic softmax ---------------------------------------------

// cuDNNWarps is the fixed block width of the generic library kernel.
const cuDNNWarps = 4

// cuDNNIdxOverhead is the per-load generic address-arithmetic cost (cycles):
// the library kernel handles arbitrary N/C/H/W strides with integer div/mod.
const cuDNNIdxOverhead = 8

func softmaxCuDNNKernel(cfg cudasim.Config, p *Problem) cudasim.Kernel {
	cols := p.Cols
	W := cuDNNWarps
	span := W * cfg.WarpSize
	tiles := (cols + span - 1) / span
	// Traffic: read (max), read + write exp (materialised), read exp +
	// write result: 3R + 2W.
	bytes := int64(p.Rows) * int64(cols) * 4 * 5
	program := func(b *cudasim.Block) {
		r := b.Idx()
		if r >= p.Rows {
			return
		}
		in, out := p.rowIn(r), p.rowOut(r)

		// Pass 1: max.
		for wi := 0; wi < W; wi++ {
			w := b.Warp(wi)
			w.Splat(regAcc0, negInf)
			for t := 0; t < tiles; t++ {
				off := (t*W + wi) * cfg.WarpSize
				if off >= cols {
					continue
				}
				count := minInt(cfg.WarpSize, cols-off)
				w.ChargeCycles(cuDNNIdxOverhead)
				w.LoadGlobal(regSeg0, in, off, count, negInf, true)
				w.Max(regAcc0, regAcc0, regSeg0)
			}
			warpReduce(w, opMax, regAcc0, regTmp0)
			w.StoreSharedLane(regAcc0, 0, wi)
		}
		b.Sync()
		w0 := b.Warp(0)
		w0.LoadShared(regAux0, 0, W, negInf)
		warpReduce(w0, opMax, regAux0, regTmp0)
		w0.StoreSharedLane(regAux0, 0, W)
		b.Sync()

		// Pass 2: materialise exp(x-max) into out and accumulate the sum.
		for wi := 0; wi < W; wi++ {
			w := b.Warp(wi)
			w.LoadSharedBroadcast(regAux1, W)
			w.Splat(regAcc0, 0)
			for t := 0; t < tiles; t++ {
				off := (t*W + wi) * cfg.WarpSize
				if off >= cols {
					continue
				}
				count := minInt(cfg.WarpSize, cols-off)
				w.ChargeCycles(cuDNNIdxOverhead)
				w.LoadGlobal(regSeg0, in, off, count, negInf, true)
				w.Sub(regSeg0, regSeg0, regAux1)
				w.Exp(regSeg0, regSeg0)
				w.StoreGlobal(regSeg0, out, off, count, true)
				w.Add(regAcc0, regAcc0, regSeg0)
			}
			warpReduce(w, opSum, regAcc0, regTmp0)
			w.StoreSharedLane(regAcc0, 0, wi)
		}
		b.Sync()
		w0.LoadShared(regAux0, 0, W, 0)
		warpReduce(w0, opSum, regAux0, regTmp0)
		w0.StoreSharedLane(regAux0, 0, W+1)
		b.Sync()

		// Pass 3: reload the materialised exp values and scale.
		for wi := 0; wi < W; wi++ {
			w := b.Warp(wi)
			w.LoadSharedBroadcast(regAux1, W+1)
			w.Rcp(regAux2, regAux1)
			for t := 0; t < tiles; t++ {
				off := (t*W + wi) * cfg.WarpSize
				if off >= cols {
					continue
				}
				count := minInt(cfg.WarpSize, cols-off)
				w.ChargeCycles(cuDNNIdxOverhead)
				w.LoadGlobal(regSeg0, out, off, count, 0, true)
				w.Mul(regSeg0, regSeg0, regAux2)
				w.StoreGlobal(regSeg0, out, off, count, true)
			}
		}
	}
	return cudasim.Kernel{
		Name:        "softmax-cudnn",
		GridBlocks:  p.Rows, // block per row
		WarpsPerBlk: W,
		SharedWords: W + 2,
		Program:     program,
		BytesMoved:  bytes,
		LaunchScale: 0.7, // lean library dispatch vs. the runtimes' graph step
	}
}
