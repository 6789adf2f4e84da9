package cudasim

import "fmt"

// Kernel describes a grid launch of identical blocks. The Program runs once
// per block; Block.Idx() tells it which slice of the problem to process.
type Kernel struct {
	Name        string
	GridBlocks  int            // number of thread blocks
	WarpsPerBlk int            // warps per block
	SharedWords int            // shared-memory words per block
	Program     func(b *Block) // the block program (functional + timed)
	BytesMoved  int64          // global-memory traffic for the bandwidth bound
	// LaunchScale scales the device's launch overhead for this kernel
	// (e.g. a lean library kernel vs. a framework dispatch). 0 means 1.
	LaunchScale float64
}

// Result reports the simulated execution of one kernel launch.
type Result struct {
	Kernel string
	// Cycles is the total device-time in core clock cycles, including launch
	// overhead, compute waves, and the DRAM bandwidth lower bound.
	Cycles int64
	// ComputeCycles is the compute-side estimate alone (waves × block time).
	ComputeCycles int64
	// MemoryCycles is the DRAM-bandwidth lower bound alone.
	MemoryCycles int64
	// BlockCycles is the representative block's duration.
	BlockCycles int64
	Seconds     float64
	Stats       BlockStats
}

// Device executes kernels against a Config.
type Device struct {
	cfg Config
}

// NewDevice returns a device simulator for the given configuration.
func NewDevice(cfg Config) *Device {
	if cfg.NumSMs <= 0 || cfg.WarpSize <= 0 {
		panic("cudasim: invalid device config")
	}
	return &Device{cfg: cfg}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Launch executes the kernel. Every block runs functionally (so outputs are
// real), and timing uses the homogeneous-grid schedule: blocks are identical
// in cost, so device time is the number of waves times the representative
// block time, lower-bounded by the DRAM bandwidth model, plus launch
// overhead.
//
//turbovet:allow testonly -- the every-block functional launch the correctness tests of cudasim and reduction run; it builds blocks, which only cudasim can
func (d *Device) Launch(k Kernel) Result {
	if k.GridBlocks <= 0 {
		panic(fmt.Sprintf("cudasim: kernel %q has no blocks", k.Name))
	}
	var rep *Block
	for i := 0; i < k.GridBlocks; i++ {
		b := newBlock(i, k.WarpsPerBlk, k.SharedWords, &d.cfg)
		k.Program(b)
		if i == 0 {
			rep = b
		}
	}
	return d.schedule(k, rep)
}

// LaunchTimed runs only block 0 functionally and extrapolates the schedule.
// Use it for large benchmark grids where materialising every block's output
// is unnecessary; Launch and LaunchTimed report identical timing for
// homogeneous grids (enforced by tests).
func (d *Device) LaunchTimed(k Kernel) Result {
	if k.GridBlocks <= 0 {
		panic(fmt.Sprintf("cudasim: kernel %q has no blocks", k.Name))
	}
	b := newBlock(0, k.WarpsPerBlk, k.SharedWords, &d.cfg)
	k.Program(b)
	return d.schedule(k, b)
}

func (d *Device) schedule(k Kernel, rep *Block) Result {
	blockCycles := rep.Cycles()
	concurrent := d.cfg.NumSMs * d.cfg.BlocksPerSM
	waves := (k.GridBlocks + concurrent - 1) / concurrent
	compute := int64(waves) * blockCycles
	var mem int64
	if d.cfg.MemBandwidthBytesPerCycle > 0 && k.BytesMoved > 0 {
		mem = int64(float64(k.BytesMoved) / d.cfg.MemBandwidthBytesPerCycle)
	}
	scale := k.LaunchScale
	if scale == 0 {
		scale = 1
	}
	launch := int64(float64(d.cfg.KernelLaunchCycles) * scale)
	total := launch + maxI64(compute, mem)
	return Result{
		Kernel:        k.Name,
		Cycles:        total,
		ComputeCycles: compute,
		MemoryCycles:  mem,
		BlockCycles:   blockCycles,
		Seconds:       d.cfg.CyclesToSeconds(total),
		Stats:         rep.Stats(),
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
