package cudasim

import (
	"math"
	"testing"
)

func testDevice() *Device {
	return NewDevice(TeslaV100())
}

func newTestBlock(warps int) *Block {
	cfg := TeslaV100()
	return newBlock(0, warps, 64, &cfg)
}

func TestWarpArithmetic(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	w.Splat(0, 2)
	w.Splat(1, 3)
	w.Add(2, 0, 1)
	if w.Lane(2, 0) != 5 || w.Lane(2, 31) != 5 {
		t.Fatalf("Add: %v", w.Lane(2, 0))
	}
	w.Mul(3, 0, 1)
	if w.Lane(3, 7) != 6 {
		t.Fatal("Mul")
	}
	w.Sub(4, 1, 0)
	if w.Lane(4, 0) != 1 {
		t.Fatal("Sub")
	}
	w.Max(5, 0, 1)
	if w.Lane(5, 0) != 3 {
		t.Fatal("Max")
	}
	w.FMA(6, 0, 1, 5) // 2*3+3
	if w.Lane(6, 0) != 9 {
		t.Fatal("FMA")
	}
	w.Mov(7, 6)
	if w.Lane(7, 12) != 9 {
		t.Fatal("Mov")
	}
	w.Exp(8, 0)
	if math.Abs(float64(w.Lane(8, 0))-math.Exp(2)) > 1e-4 {
		t.Fatal("Exp")
	}
	w.Splat(9, 4)
	w.Rsqrt(10, 9)
	if math.Abs(float64(w.Lane(10, 0))-0.5) > 1e-6 {
		t.Fatal("Rsqrt")
	}
	w.Rcp(11, 9)
	if math.Abs(float64(w.Lane(11, 0))-0.25) > 1e-6 {
		t.Fatal("Rcp")
	}
}

func TestShflDownSemantics(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	for i := 0; i < 32; i++ {
		w.regs[0][i] = float32(i)
	}
	w.ShflDown(1, 0, 16)
	if w.Lane(1, 0) != 16 {
		t.Fatalf("lane 0 should see lane 16, got %v", w.Lane(1, 0))
	}
	if w.Lane(1, 20) != 20 {
		t.Fatalf("out-of-range lane keeps own value, got %v", w.Lane(1, 20))
	}
}

func TestShflXorButterflyReducesAllLanes(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	var want float32
	for i := 0; i < 32; i++ {
		w.regs[0][i] = float32(i + 1)
		want += float32(i + 1)
	}
	for mask := 16; mask >= 1; mask >>= 1 {
		w.ShflXor(1, 0, mask)
		w.Add(0, 0, 1)
	}
	for i := 0; i < 32; i++ {
		if w.Lane(0, i) != want {
			t.Fatalf("lane %d = %v, want %v", i, w.Lane(0, i), want)
		}
	}
}

func TestBroadcast(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	w.regs[0][5] = 42
	w.Broadcast(1, 0, 5)
	if w.Lane(1, 0) != 42 || w.Lane(1, 31) != 42 {
		t.Fatal("Broadcast")
	}
}

// The scoreboard must make a dependent chain slower than an independent one
// with the same instruction count — the ILP effect of Fig. 4.
func TestScoreboardDependentVsIndependentChains(t *testing.T) {
	cfg := TeslaV100()

	dep := newBlock(0, 1, 8, &cfg)
	w := dep.Warp(0)
	w.Splat(0, 1)
	for i := 0; i < 8; i++ {
		w.ShflXor(1, 0, 1)
		w.Add(0, 0, 1) // every Add waits on the shuffle, every shuffle on the Add
	}
	depCycles := dep.Cycles()

	indep := newBlock(0, 1, 8, &cfg)
	w = indep.Warp(0)
	w.Splat(0, 1)
	w.Splat(2, 1)
	for i := 0; i < 4; i++ { // same 16 instructions, two independent chains
		w.ShflXor(1, 0, 1)
		w.ShflXor(3, 2, 1)
		w.Add(0, 0, 1)
		w.Add(2, 2, 3)
	}
	indepCycles := indep.Cycles()

	if indepCycles >= depCycles {
		t.Fatalf("interleaved chains (%d cycles) should beat dependent chain (%d cycles)", indepCycles, depCycles)
	}
}

func TestLoadGlobalBoundaryCharge(t *testing.T) {
	cfg := TeslaV100()
	data := make([]float32, 64)

	full := newBlock(0, 1, 8, &cfg)
	full.Warp(0).LoadGlobal(0, data, 0, 32, 0, true)
	fullCycles := full.Cycles()

	partial := newBlock(0, 1, 8, &cfg)
	partial.Warp(0).LoadGlobal(0, data, 0, 10, 0, true)
	partialCycles := partial.Cycles()

	uncharged := newBlock(0, 1, 8, &cfg)
	uncharged.Warp(0).LoadGlobal(0, data, 0, 10, 0, false)
	unchargedCycles := uncharged.Cycles()

	if partialCycles != fullCycles+cfg.BoundaryCost {
		t.Fatalf("partial load should cost +%d, got %d vs %d", cfg.BoundaryCost, partialCycles, fullCycles)
	}
	if unchargedCycles != fullCycles {
		t.Fatalf("uncharged partial load should equal full load: %d vs %d", unchargedCycles, fullCycles)
	}
}

func TestLoadGlobalFill(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	data := []float32{1, 2, 3}
	w.LoadGlobal(0, data, 0, 3, -7, true)
	if w.Lane(0, 0) != 1 || w.Lane(0, 2) != 3 {
		t.Fatal("loaded lanes wrong")
	}
	if w.Lane(0, 3) != -7 || w.Lane(0, 31) != -7 {
		t.Fatal("fill lanes wrong")
	}
}

func TestStoreGlobalPartial(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	w.Splat(0, 9)
	dst := make([]float32, 40)
	w.StoreGlobal(0, dst, 4, 3, true)
	if dst[4] != 9 || dst[6] != 9 {
		t.Fatal("store lanes missing")
	}
	if dst[3] != 0 || dst[7] != 0 {
		t.Fatal("store wrote outside range")
	}
}

func TestSharedMemoryAndSync(t *testing.T) {
	b := newTestBlock(2)
	w0, w1 := b.Warp(0), b.Warp(1)
	w0.Splat(0, 11)
	w0.StoreSharedLane(0, 0, 3)
	b.Sync()
	w1.LoadSharedBroadcast(1, 3)
	if w1.Lane(1, 16) != 11 {
		t.Fatal("shared value not visible after sync")
	}
	if b.Stats().Syncs != 1 {
		t.Fatalf("sync count = %d", b.Stats().Syncs)
	}
}

func TestSyncAlignsClocks(t *testing.T) {
	cfg := TeslaV100()
	b := newBlock(0, 2, 8, &cfg)
	// Make warp 0 busy, warp 1 idle.
	w0 := b.Warp(0)
	for i := 0; i < 10; i++ {
		w0.Splat(0, 1)
	}
	before0, before1 := b.Warp(0).clock, b.Warp(1).clock
	if before1 >= before0 {
		t.Fatal("test setup: warp 0 should be ahead")
	}
	b.Sync()
	if b.Warp(0).clock != b.Warp(1).clock {
		t.Fatal("sync must align warp clocks")
	}
	if b.Warp(1).clock < before0+cfg.SyncCost {
		t.Fatal("sync must charge barrier cost past the slowest warp")
	}
}

func TestLoadSharedPartialFill(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	b.shared[0], b.shared[1] = 5, 6
	w.LoadShared(0, 0, 2, -1)
	if w.Lane(0, 0) != 5 || w.Lane(0, 1) != 6 || w.Lane(0, 2) != -1 {
		t.Fatal("LoadShared fill wrong")
	}
}

func TestDeviceLaunchWavesAndBandwidth(t *testing.T) {
	cfg := TeslaV100()
	dev := NewDevice(cfg)
	prog := func(b *Block) {
		w := b.Warp(0)
		w.Splat(0, 1)
		w.Add(0, 0, 0)
	}
	concurrent := cfg.NumSMs * cfg.BlocksPerSM

	oneWave := dev.LaunchTimed(Kernel{Name: "k", GridBlocks: concurrent, WarpsPerBlk: 1, SharedWords: 1, Program: prog})
	twoWaves := dev.LaunchTimed(Kernel{Name: "k", GridBlocks: concurrent + 1, WarpsPerBlk: 1, SharedWords: 1, Program: prog})
	if twoWaves.ComputeCycles != 2*oneWave.ComputeCycles {
		t.Fatalf("wave math: %d vs %d", twoWaves.ComputeCycles, oneWave.ComputeCycles)
	}

	memBound := dev.LaunchTimed(Kernel{Name: "m", GridBlocks: 1, WarpsPerBlk: 1, SharedWords: 1, Program: prog, BytesMoved: 1 << 30})
	wantMem := int64(float64(1<<30) / cfg.MemBandwidthBytesPerCycle)
	if memBound.MemoryCycles != wantMem {
		t.Fatalf("memory cycles = %d, want %d", memBound.MemoryCycles, wantMem)
	}
	if memBound.Cycles < wantMem {
		t.Fatal("memory bound must floor total cycles")
	}
}

func TestDeviceLaunchScale(t *testing.T) {
	cfg := TeslaV100()
	dev := NewDevice(cfg)
	prog := func(b *Block) {}
	normal := dev.LaunchTimed(Kernel{Name: "n", GridBlocks: 1, WarpsPerBlk: 1, Program: prog})
	lean := dev.LaunchTimed(Kernel{Name: "l", GridBlocks: 1, WarpsPerBlk: 1, Program: prog, LaunchScale: 0.5})
	if lean.Cycles*2 != normal.Cycles {
		t.Fatalf("launch scale: %d vs %d", lean.Cycles, normal.Cycles)
	}
}

func TestLaunchVsLaunchTimedSameTiming(t *testing.T) {
	dev := testDevice()
	prog := func(b *Block) {
		w := b.Warp(0)
		w.Splat(0, float32(1))
		for i := 0; i < 5; i++ {
			w.ShflXor(1, 0, 1)
			w.Add(0, 0, 1)
		}
	}
	k := Kernel{Name: "k", GridBlocks: 10, WarpsPerBlk: 1, SharedWords: 1, Program: prog}
	a := dev.Launch(k)
	b := dev.LaunchTimed(k)
	if a.Cycles != b.Cycles {
		t.Fatalf("homogeneous grids must time identically: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestCyclesToSeconds(t *testing.T) {
	cfg := TeslaV100()
	s := cfg.CyclesToSeconds(int64(cfg.ClockGHz * 1e9))
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("1 second of cycles = %v s", s)
	}
}

func TestResultSecondsConsistent(t *testing.T) {
	dev := testDevice()
	r := dev.LaunchTimed(Kernel{Name: "k", GridBlocks: 1, WarpsPerBlk: 1, Program: func(b *Block) {}})
	if math.Abs(r.Seconds-dev.Config().CyclesToSeconds(r.Cycles)) > 1e-12 {
		t.Fatal("Seconds inconsistent with Cycles")
	}
}

func TestBlockStatsCount(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	w.Splat(0, 1)
	w.Add(0, 0, 0)
	s := b.Stats()
	if s.Instructions != 2 {
		t.Fatalf("instructions = %d", s.Instructions)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDevice(Config{})
}

func TestZeroBlockKernelPanics(t *testing.T) {
	dev := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dev.Launch(Kernel{Name: "bad", GridBlocks: 0, WarpsPerBlk: 1, Program: func(b *Block) {}})
}

func TestBadWarpCountPanics(t *testing.T) {
	cfg := TeslaV100()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newBlock(0, 0, 0, &cfg)
}
