package allocator

import (
	"math/rand"
	"testing"
)

func TestIdleTTLDelaysRelease(t *testing.T) {
	dev := NewDevice()
	a := NewTurbo(dev).WithIdleTTL(2)
	big := []UsageRecord{
		{TensorID: 0, FirstOp: 0, LastOp: 1, Size: 3 << 20},
		{TensorID: 1, FirstOp: 0, LastOp: 1, Size: 3 << 20},
	}
	small := []UsageRecord{{TensorID: 0, FirstOp: 0, LastOp: 0, Size: 1 << 10}}

	a.Plan(big)
	if len(a.ChunkSizes()) != 2 {
		t.Fatalf("chunks after big: %d", len(a.ChunkSizes()))
	}
	// Two idle inferences: the idle chunk survives (idle counts 1, 2).
	a.Plan(small)
	if len(a.ChunkSizes()) != 2 {
		t.Fatalf("TTL=2 should keep the idle chunk after 1 idle inference: %d", len(a.ChunkSizes()))
	}
	a.Plan(small)
	if len(a.ChunkSizes()) != 2 {
		t.Fatalf("TTL=2 should keep the idle chunk after 2 idle inferences: %d", len(a.ChunkSizes()))
	}
	// Third idle inference exceeds the TTL: released.
	a.Plan(small)
	if len(a.ChunkSizes()) != 1 {
		t.Fatalf("TTL=2 should release after 3 idle inferences: %d", len(a.ChunkSizes()))
	}
}

func TestIdleTTLResetOnReuse(t *testing.T) {
	dev := NewDevice()
	a := NewTurbo(dev).WithIdleTTL(1)
	big := []UsageRecord{
		{TensorID: 0, FirstOp: 0, LastOp: 1, Size: 3 << 20},
		{TensorID: 1, FirstOp: 0, LastOp: 1, Size: 3 << 20},
	}
	small := []UsageRecord{{TensorID: 0, FirstOp: 0, LastOp: 0, Size: 1 << 10}}
	a.Plan(big)
	a.Plan(small) // chunk 2 idle: 1 (kept)
	a.Plan(big)   // reused: idle resets
	a.Plan(small) // idle: 1 again (kept)
	if len(a.ChunkSizes()) != 2 {
		t.Fatalf("reuse should reset the idle counter: %d chunks", len(a.ChunkSizes()))
	}
}

func TestIdleTTLReducesTraffic(t *testing.T) {
	// On an alternating big/small stream, TTL≥1 avoids the free+malloc
	// churn the immediate policy pays.
	stream := func(ttl int) Snapshot {
		dev := NewDevice()
		a := NewTurbo(dev).WithIdleTTL(ttl)
		big := []UsageRecord{
			{TensorID: 0, FirstOp: 0, LastOp: 1, Size: 3 << 20},
			{TensorID: 1, FirstOp: 0, LastOp: 1, Size: 3 << 20},
		}
		small := []UsageRecord{{TensorID: 0, FirstOp: 0, LastOp: 0, Size: 1 << 10}}
		for i := 0; i < 10; i++ {
			a.Plan(big)
			a.Plan(small)
		}
		return dev.Snapshot()
	}
	immediate := stream(0)
	ttl := stream(1)
	if ttl.AllocCount >= immediate.AllocCount {
		t.Fatalf("TTL should reduce allocations: %d vs %d", ttl.AllocCount, immediate.AllocCount)
	}
}

func TestIdleTTLValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTurbo(NewDevice()).WithIdleTTL(-1)
}

func TestDirectAllocatorFreesEverything(t *testing.T) {
	dev := NewDevice()
	a := NewDirect(dev)
	rng := rand.New(rand.NewSource(5))
	records := randomRecords(rng, 14, 10, 1<<20)
	p := a.Plan(records)
	if err := Validate(p, records); err != nil {
		t.Fatal(err)
	}
	snap := dev.Snapshot()
	if snap.LiveBytes != 0 {
		t.Fatalf("direct allocator must free everything: %d live", snap.LiveBytes)
	}
	if snap.AllocCount != int64(len(records)) || snap.FreeCount != int64(len(records)) {
		t.Fatalf("one malloc+free per tensor: %+v", snap)
	}
}

func TestDirectAllocatorMaximalTrafficPerInference(t *testing.T) {
	// Direct pays full traffic on EVERY inference; Turbo only on change.
	records := chainRecords(1<<18, 1<<18, 1<<18)
	dDev, tDev := NewDevice(), NewDevice()
	direct, turbo := NewDirect(dDev), NewTurbo(tDev)
	for i := 0; i < 5; i++ {
		direct.Plan(records)
		turbo.Plan(records)
	}
	if dDev.Snapshot().AllocCount != 15 {
		t.Fatalf("direct allocs: %d", dDev.Snapshot().AllocCount)
	}
	if tDev.Snapshot().AllocCount >= dDev.Snapshot().AllocCount {
		t.Fatal("turbo should allocate far less often than direct")
	}
}

// Ablation: smaller chunks track the working set more tightly (lower
// footprint) but cause more chunk churn (higher traffic) on varying
// lengths — the DEFAULT_CHUNK_SIZE trade-off DESIGN.md documents.
func TestChunkSizeTradeoff(t *testing.T) {
	lens := []int64{1 << 20, 3 << 20, 1 << 19, 5 << 20, 1 << 18, 2 << 20}
	run := func(chunkSize int64) Snapshot {
		dev := NewDevice()
		a := NewTurboWithParams(dev, chunkSize, KScale)
		for _, sz := range lens {
			a.Plan([]UsageRecord{
				{TensorID: 0, FirstOp: 0, LastOp: 1, Size: sz},
				{TensorID: 1, FirstOp: 1, LastOp: 2, Size: sz / 2},
			})
		}
		return dev.Snapshot()
	}
	small := run(256 << 10)
	big := run(16 << 20)
	if small.PeakBytes >= big.PeakBytes {
		t.Fatalf("small chunks should bound footprint tighter: %d vs %d",
			small.PeakBytes, big.PeakBytes)
	}
	if small.AllocCount <= big.AllocCount {
		t.Fatalf("small chunks should churn more: %d vs %d allocs",
			small.AllocCount, big.AllocCount)
	}
}
