package cudasim

import "math"

// NumRegs is the number of 32-lane vector registers each warp exposes to
// kernel programs. Reduction kernels need few; 24 leaves headroom for the
// interleaved XElem variants.
const NumRegs = 24

// Reg names a warp vector register.
type Reg int

// Warp models one 32-lane SIMT warp: a set of vector registers holding real
// FP32 lane values, a clock, and a register scoreboard. Instructions issue
// in program order; an instruction whose source register is not yet ready
// stalls the warp until the producing instruction's latency has elapsed —
// this is the mechanism that makes dependent shuffle→add chains slow and
// interleaved independent chains fast (Fig. 4, right side).
type Warp struct {
	cfg   *Config
	block *Block

	regs    [NumRegs][]float32 // lane values, each length WarpSize
	readyAt [NumRegs]int64     // cycle at which the register's value is usable
	clock   int64              // next issue opportunity

	instructions int64 // statistics: instructions issued
	stallCycles  int64 // statistics: cycles lost waiting on the scoreboard
}

func newWarp(cfg *Config, block *Block) *Warp {
	w := &Warp{cfg: cfg, block: block}
	for i := range w.regs {
		w.regs[i] = make([]float32, cfg.WarpSize)
	}
	return w
}

// issue models issuing one instruction that reads srcs and writes dst with
// the given result latency. It returns the issue cycle.
func (w *Warp) issue(latency int64, dst Reg, srcs ...Reg) int64 {
	at := w.clock
	for _, s := range srcs {
		if r := w.readyAt[s]; r > at {
			at = r
		}
	}
	w.stallCycles += at - w.clock
	w.clock = at + w.cfg.IssueCost
	if dst >= 0 {
		w.readyAt[dst] = at + latency
	}
	w.instructions++
	return at
}

// Splat sets every lane of dst to v.
func (w *Warp) Splat(dst Reg, v float32) {
	w.issue(w.cfg.ArithLatency, dst)
	lanes := w.regs[dst]
	for i := range lanes {
		lanes[i] = v
	}
}

// LoadGlobal loads active lanes i∈[0,count) of dst from src[off+i]. Inactive
// lanes are filled with fill (reduction identity). A partial warp
// (count < WarpSize) charges the boundary-divergence cost unless the caller
// indicates the check was already merged (see ChargeBoundary).
func (w *Warp) LoadGlobal(dst Reg, src []float32, off, count int, fill float32, chargeBoundary bool) {
	if count > w.cfg.WarpSize {
		count = w.cfg.WarpSize
	}
	lat := w.cfg.GlobalLoadLatency
	if count < w.cfg.WarpSize && chargeBoundary {
		lat += w.cfg.BoundaryCost
	}
	w.issue(lat, dst)
	lanes := w.regs[dst]
	for i := 0; i < count; i++ {
		lanes[i] = src[off+i]
	}
	for i := count; i < len(lanes); i++ {
		lanes[i] = fill
	}
}

// issueStore models a store: it waits for the source register, occupies one
// issue slot, and charges cost cycles of store-path occupancy.
func (w *Warp) issueStore(src Reg, cost int64) {
	at := w.clock
	if r := w.readyAt[src]; r > at {
		at = r
	}
	w.stallCycles += at - w.clock
	w.clock = at + cost
	w.instructions++
}

// StoreGlobal writes lanes i∈[0,count) of src to dst[off+i].
func (w *Warp) StoreGlobal(src Reg, dst []float32, off, count int, chargeBoundary bool) {
	if count > w.cfg.WarpSize {
		count = w.cfg.WarpSize
	}
	cost := w.cfg.GlobalStoreLatency
	if count < w.cfg.WarpSize && chargeBoundary {
		cost += w.cfg.BoundaryCost
	}
	w.issueStore(src, cost)
	lanes := w.regs[src]
	for i := 0; i < count; i++ {
		dst[off+i] = lanes[i]
	}
}

// ChargeBoundary charges one boundary predicate/divergence cost. The XElem
// kernels use it to model X merged boundary checks as a single charge.
func (w *Warp) ChargeBoundary() {
	w.clock += w.cfg.BoundaryCost
}

// ChargeCycles advances the warp clock by n cycles without touching any
// register. Kernel models use it for fixed per-operation overheads that the
// ISA-level ops don't capture (e.g. generic address arithmetic in library
// kernels that handle arbitrary strides).
func (w *Warp) ChargeCycles(n int64) {
	w.clock += n
}

// Add computes dst = a + b lane-wise.
func (w *Warp) Add(dst, a, b Reg) {
	w.issue(w.cfg.ArithLatency, dst, a, b)
	da, db, dd := w.regs[a], w.regs[b], w.regs[dst]
	for i := range dd {
		dd[i] = da[i] + db[i]
	}
}

// Mul computes dst = a * b lane-wise.
func (w *Warp) Mul(dst, a, b Reg) {
	w.issue(w.cfg.ArithLatency, dst, a, b)
	da, db, dd := w.regs[a], w.regs[b], w.regs[dst]
	for i := range dd {
		dd[i] = da[i] * db[i]
	}
}

// Mov copies a into dst (one issue slot, arithmetic latency).
func (w *Warp) Mov(dst, a Reg) {
	w.issue(w.cfg.ArithLatency, dst, a)
	copy(w.regs[dst], w.regs[a])
}

// Sub computes dst = a - b lane-wise.
func (w *Warp) Sub(dst, a, b Reg) {
	w.issue(w.cfg.ArithLatency, dst, a, b)
	da, db, dd := w.regs[a], w.regs[b], w.regs[dst]
	for i := range dd {
		dd[i] = da[i] - db[i]
	}
}

// Max computes dst = max(a, b) lane-wise.
func (w *Warp) Max(dst, a, b Reg) {
	w.issue(w.cfg.ArithLatency, dst, a, b)
	da, db, dd := w.regs[a], w.regs[b], w.regs[dst]
	for i := range dd {
		if da[i] > db[i] {
			dd[i] = da[i]
		} else {
			dd[i] = db[i]
		}
	}
}

// FMA computes dst = a*b + c lane-wise (counts as one instruction).
func (w *Warp) FMA(dst, a, b, c Reg) {
	w.issue(w.cfg.ArithLatency, dst, a, b, c)
	da, db, dc, dd := w.regs[a], w.regs[b], w.regs[c], w.regs[dst]
	for i := range dd {
		dd[i] = da[i]*db[i] + dc[i]
	}
}

// Exp computes dst = exp(a) lane-wise on the special-function unit.
func (w *Warp) Exp(dst, a Reg) {
	w.issue(w.cfg.SFULatency, dst, a)
	da, dd := w.regs[a], w.regs[dst]
	for i := range dd {
		dd[i] = float32(math.Exp(float64(da[i])))
	}
}

// Rsqrt computes dst = 1/sqrt(a) lane-wise on the special-function unit.
func (w *Warp) Rsqrt(dst, a Reg) {
	w.issue(w.cfg.SFULatency, dst, a)
	da, dd := w.regs[a], w.regs[dst]
	for i := range dd {
		dd[i] = float32(1 / math.Sqrt(float64(da[i])))
	}
}

// Rcp computes dst = 1/a lane-wise on the special-function unit.
func (w *Warp) Rcp(dst, a Reg) {
	w.issue(w.cfg.SFULatency, dst, a)
	da, dd := w.regs[a], w.regs[dst]
	for i := range dd {
		dd[i] = 1 / da[i]
	}
}

// ShflDown implements __shfl_down_sync: lane i reads src lane i+delta;
// lanes beyond the end keep their own value.
func (w *Warp) ShflDown(dst, src Reg, delta int) {
	w.issue(w.cfg.ShuffleLatency, dst, src)
	n := len(w.regs[src])
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		j := i + delta
		if j >= n {
			j = i
		}
		out[i] = w.regs[src][j]
	}
	copy(w.regs[dst], out)
}

// ShflXor implements __shfl_xor_sync (butterfly exchange): lane i reads
// src lane i^mask. After log2(WarpSize) rounds every lane holds the full
// reduction — the "AllReduce" pattern that avoids a separate broadcast.
func (w *Warp) ShflXor(dst, src Reg, mask int) {
	w.issue(w.cfg.ShuffleLatency, dst, src)
	n := len(w.regs[src])
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		j := i ^ mask
		if j >= n {
			j = i
		}
		out[i] = w.regs[src][j]
	}
	copy(w.regs[dst], out)
}

// Broadcast implements __shfl_sync from a single lane to all lanes.
func (w *Warp) Broadcast(dst, src Reg, lane int) {
	w.issue(w.cfg.ShuffleLatency, dst, src)
	v := w.regs[src][lane]
	dd := w.regs[dst]
	for i := range dd {
		dd[i] = v
	}
}

// Lane returns the current value of one lane (test/debug helper; free).
func (w *Warp) Lane(r Reg, lane int) float32 { return w.regs[r][lane] }

// StoreSharedLane writes a single lane of src into shared memory at addr.
func (w *Warp) StoreSharedLane(src Reg, lane, addr int) {
	w.issueStore(src, w.cfg.SharedStoreLatency)
	w.block.shared[addr] = w.regs[src][lane]
}

// LoadShared reads lanes i∈[0,count) of dst from shared memory at base+i,
// filling inactive lanes with fill.
func (w *Warp) LoadShared(dst Reg, base, count int, fill float32) {
	if count > w.cfg.WarpSize {
		count = w.cfg.WarpSize
	}
	w.issue(w.cfg.SharedLoadLatency, dst)
	lanes := w.regs[dst]
	for i := 0; i < count; i++ {
		lanes[i] = w.block.shared[base+i]
	}
	for i := count; i < len(lanes); i++ {
		lanes[i] = fill
	}
}

// LoadSharedBroadcast loads one shared-memory word into all lanes of dst.
func (w *Warp) LoadSharedBroadcast(dst Reg, addr int) {
	w.issue(w.cfg.SharedLoadLatency, dst)
	v := w.block.shared[addr]
	lanes := w.regs[dst]
	for i := range lanes {
		lanes[i] = v
	}
}
