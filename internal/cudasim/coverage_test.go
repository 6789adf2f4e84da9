package cudasim

import "testing"

func TestChargeCyclesAdvancesClock(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	before := w.clock
	w.ChargeCycles(17)
	if w.clock != before+17 {
		t.Fatalf("clock %d, want %d", w.clock, before+17)
	}
}

func TestChargeBoundaryCost(t *testing.T) {
	cfg := TeslaV100()
	b := newTestBlock(1)
	w := b.Warp(0)
	before := w.clock
	w.ChargeBoundary()
	if w.clock != before+cfg.BoundaryCost {
		t.Fatalf("boundary charge: %d", w.clock-before)
	}
}

func TestMovPreservesTiming(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	w.Splat(0, 5)
	w.Mov(1, 0)
	if w.Lane(1, 31) != 5 {
		t.Fatal("Mov values")
	}
	if b.Stats().Instructions != 2 {
		t.Fatalf("instructions: %d", b.Stats().Instructions)
	}
}

// Stalls must be recorded when an instruction waits on the scoreboard.
func TestStallAccounting(t *testing.T) {
	cfg := TeslaV100()
	b := newBlock(0, 1, 8, &cfg)
	w := b.Warp(0)
	w.Splat(0, 1)
	w.ShflXor(1, 0, 1) // result ready after shuffle latency
	w.Add(2, 1, 1)     // must stall
	if b.Stats().StallCycles == 0 {
		t.Fatal("dependent add should record stall cycles")
	}
}

// Warps evolve independently between barriers.
func TestWarpsIndependentClocks(t *testing.T) {
	cfg := TeslaV100()
	b := newBlock(0, 2, 8, &cfg)
	for i := 0; i < 5; i++ {
		b.Warp(0).Splat(0, 1)
	}
	if b.Warp(1).clock != 0 {
		t.Fatal("idle warp's clock moved")
	}
	if b.Warp(0).clock == 0 {
		t.Fatal("busy warp's clock did not move")
	}
}

// Block.Cycles must include in-flight register results, not just issue
// clocks — a kernel isn't done until its last result lands.
func TestBlockCyclesIncludesInFlight(t *testing.T) {
	cfg := TeslaV100()
	b := newBlock(0, 1, 8, &cfg)
	w := b.Warp(0)
	w.Splat(0, 1)
	w.Exp(1, 0) // long-latency result, never consumed
	if b.Cycles() < w.clock+cfg.SFULatency-cfg.IssueCost {
		t.Fatalf("Cycles %d should cover the SFU result", b.Cycles())
	}
}

func TestLoadGlobalCountClamped(t *testing.T) {
	b := newTestBlock(1)
	w := b.Warp(0)
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i)
	}
	w.LoadGlobal(0, data, 0, 99, 0, false) // count > warp size: clamp to 32
	if w.Lane(0, 31) != 31 {
		t.Fatal("clamped load wrong")
	}
}

func TestRTX2060ConfigSane(t *testing.T) {
	cfg := RTX2060()
	if cfg.NumSMs != 30 || cfg.WarpSize != 32 {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.MemBandwidthBytesPerCycle <= 0 || cfg.ClockGHz <= 0 {
		t.Fatal("rates must be positive")
	}
}

func TestDeviceConfigAccessor(t *testing.T) {
	dev := NewDevice(RTX2060())
	if dev.Config().Name != "RTX 2060" {
		t.Fatal("Config accessor")
	}
}
