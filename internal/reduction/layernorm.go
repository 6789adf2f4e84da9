package reduction

import (
	"fmt"

	"repro/internal/cudasim"
)

// lnEps matches the epsilon the CPU reference uses.
const lnEps = 1e-5

// LayerNormImpl selects a LayerNorm kernel implementation.
type LayerNormImpl int

const (
	// LayerNormBaseline is the classical two-pass implementation used by
	// FasterTransformer: one blockReduce for the mean, a second reload and
	// blockReduce for E(x−E(x))², then a normalise pass — four barriers and
	// three row reads per row.
	LayerNormBaseline LayerNormImpl = iota
	// LayerNormTurbo is the paper's kernel: warpAllReduceSum_2Elem reduces
	// x and x² simultaneously (the Var(x)=E(x²)−E²(x) trick of Eq. 1) with
	// interleaved butterfly chains — two barriers and two row reads per row.
	LayerNormTurbo
	// LayerNormTurboTwoPass is the ablation: butterfly all-reduce like the
	// Turbo kernel, but with the classical two-pass variance formula, to
	// isolate Eq. 1's contribution.
	LayerNormTurboTwoPass
)

// String returns the implementation's display name.
func (l LayerNormImpl) String() string {
	switch l {
	case LayerNormBaseline:
		return "baseline"
	case LayerNormTurbo:
		return "turbo"
	case LayerNormTurboTwoPass:
		return "turbo-twopass"
	}
	return fmt.Sprintf("LayerNormImpl(%d)", int(l))
}

// LayerNormKernel builds the simulator kernel for the chosen implementation.
func LayerNormKernel(cfg cudasim.Config, impl LayerNormImpl, p *Problem) cudasim.Kernel {
	if p.Gamma == nil || p.Beta == nil {
		panic("reduction: layernorm problem needs Gamma and Beta")
	}
	switch impl {
	case LayerNormBaseline:
		return layerNormBaselineKernel(cfg, p)
	case LayerNormTurbo:
		return layerNormTurboKernel(cfg, p)
	case LayerNormTurboTwoPass:
		return layerNormTwoPassButterflyKernel(cfg, p)
	}
	panic("reduction: unknown layernorm impl")
}

// TimeLayerNorm returns extrapolated timing for the given shape.
func TimeLayerNorm(dev *cudasim.Device, impl LayerNormImpl, rows, cols int) cudasim.Result {
	g := gridFor(dev.Config(), rows, cols)
	p := NewTimedProblem(rows, cols, g.rowsPerBlock, 2)
	return dev.LaunchTimed(LayerNormKernel(dev.Config(), impl, p))
}

// normalisePass reloads the row and applies (x-mean)*rstd*gamma+beta.
// mean and rstd are broadcast from shared words mAddr and sAddr.
func normalisePass(b *cudasim.Block, cfg cudasim.Config, g grid, in, out, gamma, beta []float32, mAddr, sAddr int, chargeBoundary bool) {
	cols := len(in)
	W := g.warps
	for wi := 0; wi < W; wi++ {
		w := b.Warp(wi)
		w.LoadSharedBroadcast(regAux0, mAddr) // mean
		w.LoadSharedBroadcast(regAux1, sAddr) // rstd
		for t := 0; t < g.tiles; t++ {
			off := (t*W + wi) * cfg.WarpSize
			if off >= cols {
				continue
			}
			count := minInt(cfg.WarpSize, cols-off)
			if count < cfg.WarpSize && !chargeBoundary {
				w.ChargeBoundary() // merged single check (Turbo style)
			}
			w.LoadGlobal(regSeg0, in, off, count, 0, chargeBoundary)
			w.LoadGlobal(regSeg1, gamma, off, count, 1, false)
			w.LoadGlobal(regSeg2, beta, off, count, 0, false)
			w.Sub(regSeg0, regSeg0, regAux0)
			w.Mul(regSeg0, regSeg0, regAux1)
			w.Mul(regSeg0, regSeg0, regSeg1)
			w.Add(regSeg0, regSeg0, regSeg2)
			w.StoreGlobal(regSeg0, out, off, count, chargeBoundary)
		}
	}
}

// finalizeMoments has warp 0 turn block-wide (sum, sumSq) partials into mean
// and rstd, storing them at shared mAddr/sAddr. n is the row length.
func finalizeMoments(w0 *cudasim.Warp, n int, mAddr, sAddr int) {
	// mean = sum/n ; var = sumSq/n - mean² ; rstd = rsqrt(var + eps).
	// regAux0 holds sum (all lanes), regAux1 holds sumSq (all lanes).
	w0.Splat(regTmp2, 1/float32(n))
	w0.Mul(regAux0, regAux0, regTmp2) // mean
	w0.Mul(regAux1, regAux1, regTmp2) // E(x²)
	w0.Mul(regTmp3, regAux0, regAux0) // mean²
	w0.Sub(regAux1, regAux1, regTmp3) // variance
	w0.Splat(regTmp2, lnEps)
	w0.Add(regAux1, regAux1, regTmp2)
	w0.Rsqrt(regAux1, regAux1)
	w0.StoreSharedLane(regAux0, 0, mAddr)
	w0.StoreSharedLane(regAux1, 0, sAddr)
}

func layerNormBaselineKernel(cfg cudasim.Config, p *Problem) cudasim.Kernel {
	g := gridFor(cfg, p.Rows, p.Cols)
	cols := p.Cols
	bytes := int64(p.Rows) * int64(cols) * 4 * 4 // 3R + 1W
	program := func(b *cudasim.Block) {
		W := g.warps
		for local := 0; local < g.rowsPerBlock; local++ {
			r := b.Idx()*g.rowsPerBlock + local
			if r >= p.Rows {
				break
			}
			in, out := p.rowIn(r), p.rowOut(r)

			// Pass 1: mean.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.Splat(regAcc0, 0)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					w.LoadGlobal(regSeg0, in, off, count, 0, true)
					w.Add(regAcc0, regAcc0, regSeg0)
				}
				warpReduce(w, opSum, regAcc0, regTmp0)
				w.StoreSharedLane(regAcc0, 0, wi)
			}
			b.Sync()
			w0 := b.Warp(0)
			w0.LoadShared(regAux0, 0, W, 0)
			warpReduce(w0, opSum, regAux0, regTmp0)
			w0.Splat(regTmp2, 1/float32(cols))
			w0.Mul(regAux0, regAux0, regTmp2)
			w0.StoreSharedLane(regAux0, 0, W) // mean
			b.Sync()

			// Pass 2: variance via E(x − E(x))² — reload and subtract.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.LoadSharedBroadcast(regAux0, W)
				// Inactive lanes are filled with the mean so their squared
				// deviation is zero — the predication the real kernel uses.
				mean := w.Lane(regAux0, 0)
				w.Splat(regAcc0, 0)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					w.LoadGlobal(regSeg0, in, off, count, mean, true)
					w.Sub(regSeg0, regSeg0, regAux0)
					w.FMA(regAcc0, regSeg0, regSeg0, regAcc0)
				}
				warpReduce(w, opSum, regAcc0, regTmp0)
				w.StoreSharedLane(regAcc0, 0, wi)
			}
			b.Sync()
			w0.LoadShared(regAux1, 0, W, 0)
			warpReduce(w0, opSum, regAux1, regTmp0)
			w0.Splat(regTmp2, 1/float32(cols))
			w0.Mul(regAux1, regAux1, regTmp2)
			w0.Splat(regTmp2, lnEps)
			w0.Add(regAux1, regAux1, regTmp2)
			w0.Rsqrt(regAux1, regAux1)
			w0.Broadcast(regAux1, regAux1, 0)
			w0.StoreSharedLane(regAux1, 0, W+1) // rstd
			b.Sync()

			// Pass 3: normalise (third reload), per-access boundary checks.
			normalisePass(b, cfg, g, in, out, p.Gamma, p.Beta, W, W+1, true)
		}
	}
	return cudasim.Kernel{
		Name:        "layernorm-baseline",
		GridBlocks:  g.blocks,
		WarpsPerBlk: g.warps,
		SharedWords: g.warps + 2,
		Program:     program,
		BytesMoved:  bytes,
	}
}

func layerNormTurboKernel(cfg cudasim.Config, p *Problem) cudasim.Kernel {
	g := gridFor(cfg, p.Rows, p.Cols)
	cols := p.Cols
	bytes := int64(p.Rows) * int64(cols) * 4 * 3 // 2R + 1W
	program := func(b *cudasim.Block) {
		W := g.warps
		skipShared := W == 1
		for local := 0; local < g.rowsPerBlock; local++ {
			r := b.Idx()*g.rowsPerBlock + local
			if r >= p.Rows {
				break
			}
			in, out := p.rowIn(r), p.rowOut(r)

			// Single fused pass: reduce Σx and Σx² together
			// (warpAllReduceSum_2Elem with interleaved chains).
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.Splat(regAcc0, 0) // Σx
				w.Splat(regAcc1, 0) // Σx²
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					if count < cfg.WarpSize {
						w.ChargeBoundary() // merged check for both moments
					}
					w.LoadGlobal(regSeg0, in, off, count, 0, false)
					w.Add(regAcc0, regAcc0, regSeg0)
					w.FMA(regAcc1, regSeg0, regSeg0, regAcc1)
				}
				warpAllReduceX(w, opSum,
					[]cudasim.Reg{regAcc0, regAcc1},
					[]cudasim.Reg{regTmp0, regTmp1})
				if !skipShared {
					w.StoreSharedLane(regAcc0, 0, wi)
					w.StoreSharedLane(regAcc1, 0, W+wi)
				}
			}
			w0 := b.Warp(0)
			if !skipShared {
				b.Sync() // barrier #1 (the only reduction barrier)
				w0.LoadShared(regAux0, 0, W, 0)
				w0.LoadShared(regAux1, W, W, 0)
				warpAllReduceX(w0, opSum,
					[]cudasim.Reg{regAux0, regAux1},
					[]cudasim.Reg{regTmp0, regTmp1})
				finalizeMoments(w0, cols, 2*W, 2*W+1)
				b.Sync() // barrier #2: publish mean/rstd
				normalisePass(b, cfg, g, in, out, p.Gamma, p.Beta, 2*W, 2*W+1, false)
				continue
			}
			// Single-warp block: moments are already warp-wide; finalise in
			// registers and normalise without touching shared memory.
			w0.Mov(regAux0, regAcc0)
			w0.Mov(regAux1, regAcc1)
			finalizeMoments(w0, cols, 0, 1)
			normalisePass(b, cfg, g, in, out, p.Gamma, p.Beta, 0, 1, false)
		}
	}
	return cudasim.Kernel{
		Name:        "layernorm-turbo",
		GridBlocks:  g.blocks,
		WarpsPerBlk: g.warps,
		SharedWords: 2*g.warps + 2,
		Program:     program,
		BytesMoved:  bytes,
	}
}

// layerNormTwoPassButterflyKernel keeps the butterfly/all-reduce machinery
// but uses the classical two-pass variance — the Eq. 1 ablation.
func layerNormTwoPassButterflyKernel(cfg cudasim.Config, p *Problem) cudasim.Kernel {
	g := gridFor(cfg, p.Rows, p.Cols)
	cols := p.Cols
	bytes := int64(p.Rows) * int64(cols) * 4 * 4 // 3R + 1W
	program := func(b *cudasim.Block) {
		W := g.warps
		for local := 0; local < g.rowsPerBlock; local++ {
			r := b.Idx()*g.rowsPerBlock + local
			if r >= p.Rows {
				break
			}
			in, out := p.rowIn(r), p.rowOut(r)

			// Pass 1: Σx with butterfly reduce.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.Splat(regAcc0, 0)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					if count < cfg.WarpSize {
						w.ChargeBoundary()
					}
					w.LoadGlobal(regSeg0, in, off, count, 0, false)
					w.Add(regAcc0, regAcc0, regSeg0)
				}
				warpAllReduce(w, opSum, regAcc0, regTmp0)
				w.StoreSharedLane(regAcc0, 0, wi)
			}
			b.Sync()
			w0 := b.Warp(0)
			w0.LoadShared(regAux0, 0, W, 0)
			warpAllReduce(w0, opSum, regAux0, regTmp0)
			w0.Splat(regTmp2, 1/float32(cols))
			w0.Mul(regAux0, regAux0, regTmp2)
			w0.StoreSharedLane(regAux0, 0, W)
			b.Sync()

			// Pass 2: Σ(x−mean)², second read of the row.
			for wi := 0; wi < W; wi++ {
				w := b.Warp(wi)
				w.LoadSharedBroadcast(regAux0, W)
				mean := w.Lane(regAux0, 0)
				w.Splat(regAcc0, 0)
				for t := 0; t < g.tiles; t++ {
					off := (t*W + wi) * cfg.WarpSize
					if off >= cols {
						continue
					}
					count := minInt(cfg.WarpSize, cols-off)
					if count < cfg.WarpSize {
						w.ChargeBoundary()
					}
					w.LoadGlobal(regSeg0, in, off, count, mean, false)
					w.Sub(regSeg0, regSeg0, regAux0)
					w.FMA(regAcc0, regSeg0, regSeg0, regAcc0)
				}
				warpAllReduce(w, opSum, regAcc0, regTmp0)
				w.StoreSharedLane(regAcc0, 0, wi)
			}
			b.Sync()
			w0.LoadShared(regAux1, 0, W, 0)
			warpAllReduce(w0, opSum, regAux1, regTmp0)
			w0.Splat(regTmp2, 1/float32(cols))
			w0.Mul(regAux1, regAux1, regTmp2)
			w0.Splat(regTmp2, lnEps)
			w0.Add(regAux1, regAux1, regTmp2)
			w0.Rsqrt(regAux1, regAux1)
			w0.StoreSharedLane(regAux1, 0, W+1)
			b.Sync()

			normalisePass(b, cfg, g, in, out, p.Gamma, p.Beta, W, W+1, false)
		}
	}
	return cudasim.Kernel{
		Name:        "layernorm-turbo-twopass",
		GridBlocks:  g.blocks,
		WarpsPerBlk: g.warps,
		SharedWords: g.warps + 2,
		Program:     program,
		BytesMoved:  bytes,
	}
}
