package cudasim

import "fmt"

// Block models one CUDA thread block: a set of warps sharing a shared-memory
// region and a barrier. Warps' clocks advance independently between barriers
// (an SM's schedulers interleave ready warps), and Sync aligns them — which
// is exactly the cost the XElem kernels amortise.
type Block struct {
	idx    int
	cfg    *Config
	warps  []*Warp
	shared []float32

	syncCount int64
}

// newBlock builds a block with the given warp count and shared-memory words.
func newBlock(idx, warps, sharedWords int, cfg *Config) *Block {
	if warps < 1 || warps > cfg.MaxWarpsPerBlock {
		panic(fmt.Sprintf("cudasim: block warp count %d outside [1,%d]", warps, cfg.MaxWarpsPerBlock))
	}
	b := &Block{idx: idx, cfg: cfg, shared: make([]float32, sharedWords)}
	b.warps = make([]*Warp, warps)
	for i := range b.warps {
		b.warps[i] = newWarp(cfg, b)
	}
	return b
}

// Idx returns the block's grid index.
func (b *Block) Idx() int { return b.idx }

// Warp returns warp i.
func (b *Block) Warp(i int) *Warp { return b.warps[i] }

// Sync models __syncthreads: every warp advances to the slowest warp's
// clock plus the barrier cost. Pending register results are also drained,
// because values written before a barrier must be architecturally visible
// after it.
func (b *Block) Sync() {
	var maxc int64
	for _, w := range b.warps {
		if w.clock > maxc {
			maxc = w.clock
		}
		for _, r := range w.readyAt {
			if r > maxc {
				maxc = r
			}
		}
	}
	maxc += b.cfg.SyncCost
	for _, w := range b.warps {
		w.clock = maxc
	}
	b.syncCount++
}

// Cycles returns the block's completion time: the slowest warp including
// in-flight results.
func (b *Block) Cycles() int64 {
	var maxc int64
	for _, w := range b.warps {
		if w.clock > maxc {
			maxc = w.clock
		}
		for _, r := range w.readyAt {
			if r > maxc {
				maxc = r
			}
		}
	}
	return maxc
}

// Stats aggregates per-block instruction statistics.
type BlockStats struct {
	Instructions int64
	StallCycles  int64
	Syncs        int64
}

// Stats returns aggregate counts across the block's warps.
func (b *Block) Stats() BlockStats {
	var s BlockStats
	for _, w := range b.warps {
		s.Instructions += w.instructions
		s.StallCycles += w.stallCycles
	}
	s.Syncs = b.syncCount
	return s
}
