package allocator

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chainRecords builds a simple pipeline: tensor i produced by op i and
// consumed by op i+1.
func chainRecords(sizes ...int64) []UsageRecord {
	rs := make([]UsageRecord, len(sizes))
	for i, s := range sizes {
		rs[i] = UsageRecord{TensorID: i, Name: "t", FirstOp: i, LastOp: i + 1, Size: s}
	}
	return rs
}

// randomRecords generates a random-but-valid lifetime set.
func randomRecords(rng *rand.Rand, n, maxOps int, maxSize int64) []UsageRecord {
	rs := make([]UsageRecord, n)
	for i := range rs {
		first := rng.Intn(maxOps)
		last := first + rng.Intn(maxOps-first)
		rs[i] = UsageRecord{
			TensorID: i,
			Name:     "r",
			FirstOp:  first,
			LastOp:   last,
			Size:     4 * (1 + rng.Int63n(maxSize/4)),
		}
	}
	return rs
}

func allAllocators(dev *Device) []Allocator {
	return []Allocator{NewTurbo(dev), NewGSOC(dev), NewCaching(dev), NewNaiveArena(dev)}
}

func TestDeviceAccounting(t *testing.T) {
	d := NewDevice()
	b1 := d.Malloc(100)
	b2 := d.Malloc(50)
	s := d.Snapshot()
	if s.LiveBytes != 150 || s.PeakBytes != 150 || s.AllocCount != 2 {
		t.Fatalf("snapshot after mallocs: %+v", s)
	}
	d.Free(b1)
	s = d.Snapshot()
	if s.LiveBytes != 50 || s.PeakBytes != 150 || s.FreeCount != 1 || s.FreeBytes != 100 {
		t.Fatalf("snapshot after free: %+v", s)
	}
	d.Free(b2)
	if d.Snapshot().LiveBytes != 0 {
		t.Fatal("live bytes should return to zero")
	}
}

func TestDeviceDoubleFreePanics(t *testing.T) {
	d := NewDevice()
	b := d.Malloc(10)
	d.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Free(b)
}

func TestBufferUseAfterFreePanics(t *testing.T) {
	d := NewDevice()
	b := d.Malloc(16)
	d.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Data()
}

func TestSnapshotSub(t *testing.T) {
	d := NewDevice()
	before := d.Snapshot()
	d.Malloc(64)
	delta := d.Snapshot().Sub(before)
	if delta.AllocCount != 1 || delta.AllocBytes != 64 {
		t.Fatalf("delta: %+v", delta)
	}
}

func TestAllAllocatorsProduceValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		records := randomRecords(rng, 12, 10, 1<<20)
		for _, a := range allAllocators(NewDevice()) {
			p := a.Plan(records)
			if err := Validate(p, records); err != nil {
				t.Fatalf("%s trial %d: %v", a.Name(), trial, err)
			}
			a.Release()
		}
	}
}

// Property: Turbo plans never place lifetime-overlapping tensors on
// overlapping bytes, across repeated variable-length inferences.
func TestQuickTurboNoOverlapAcrossInferences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := NewDevice()
		a := NewTurbo(dev)
		defer a.Release()
		for inf := 0; inf < 5; inf++ {
			records := randomRecords(rng, 10, 8, 1<<22)
			p := a.Plan(records)
			if Validate(p, records) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTurboSharesSpaceAcrossDisjointLifetimes(t *testing.T) {
	// Two equal-size tensors with disjoint lifetimes must land in one chunk
	// footprint no bigger than one default chunk.
	records := []UsageRecord{
		{TensorID: 0, FirstOp: 0, LastOp: 1, Size: 1 << 20},
		{TensorID: 1, FirstOp: 2, LastOp: 3, Size: 1 << 20},
	}
	a := NewTurbo(NewDevice())
	p := a.Plan(records)
	if len(p.Chunks) != 1 {
		t.Fatalf("want 1 chunk, got %d", len(p.Chunks))
	}
	a0, a1 := p.Assignments[0], p.Assignments[1]
	if a0.Offset != a1.Offset {
		t.Fatalf("disjoint tensors should reuse the same offset: %d vs %d", a0.Offset, a1.Offset)
	}
}

func TestTurboOverlappingLifetimesSeparated(t *testing.T) {
	records := []UsageRecord{
		{TensorID: 0, FirstOp: 0, LastOp: 2, Size: 1 << 20},
		{TensorID: 1, FirstOp: 1, LastOp: 3, Size: 1 << 20},
	}
	a := NewTurbo(NewDevice())
	p := a.Plan(records)
	if err := Validate(p, records); err != nil {
		t.Fatal(err)
	}
	a0, a1 := p.Assignments[0], p.Assignments[1]
	if a0.Chunk == a1.Chunk && a0.Offset == a1.Offset {
		t.Fatal("overlapping tensors share bytes")
	}
}

func TestTurboOversizedTensorGetsScaledChunk(t *testing.T) {
	big := int64(10 << 20)
	a := NewTurbo(NewDevice())
	p := a.Plan([]UsageRecord{{TensorID: 0, FirstOp: 0, LastOp: 0, Size: big}})
	if len(p.Chunks) != 1 {
		t.Fatalf("chunks: %d", len(p.Chunks))
	}
	want := int64(float64(big) * KScale)
	if p.Chunks[0].Size != want {
		t.Fatalf("chunk size %d, want %d (K_SCALE×size)", p.Chunks[0].Size, want)
	}
}

func TestTurboReleasesUnusedChunks(t *testing.T) {
	dev := NewDevice()
	a := NewTurbo(dev)
	// Big inference: needs several chunks.
	bigRecords := []UsageRecord{
		{TensorID: 0, FirstOp: 0, LastOp: 1, Size: 3 << 20},
		{TensorID: 1, FirstOp: 0, LastOp: 1, Size: 3 << 20},
		{TensorID: 2, FirstOp: 0, LastOp: 1, Size: 3 << 20},
	}
	a.Plan(bigRecords)
	if len(a.ChunkSizes()) != 3 {
		t.Fatalf("big inference chunks = %d, want 3", len(a.ChunkSizes()))
	}
	// Small inference: only one chunk needed; the others must be freed
	// immediately (Algorithm 1 line 41).
	small := []UsageRecord{{TensorID: 0, FirstOp: 0, LastOp: 0, Size: 1 << 10}}
	a.Plan(small)
	if len(a.ChunkSizes()) != 1 {
		t.Fatalf("small inference should shrink chunks to 1, got %d", len(a.ChunkSizes()))
	}
	if dev.Snapshot().LiveBytes != a.ChunkSizes()[0] {
		t.Fatalf("device live bytes %d != remaining chunk %d", dev.Snapshot().LiveBytes, a.ChunkSizes()[0])
	}
}

func TestTurboReusesCachedChunksWithoutTraffic(t *testing.T) {
	dev := NewDevice()
	a := NewTurbo(dev)
	records := chainRecords(1<<18, 1<<18, 1<<18)
	a.Plan(records)
	before := dev.Snapshot()
	a.Plan(records) // identical inference: chunk cache fully covers it
	delta := dev.Snapshot().Sub(before)
	if delta.AllocCount != 0 || delta.FreeCount != 0 {
		t.Fatalf("repeat inference should be traffic-free, got %+v", delta)
	}
}

func TestTurboFootprintBeatsNoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	records := randomRecords(rng, 30, 6, 1<<20)
	a := NewTurbo(NewDevice())
	p := a.Plan(records)
	if p.FootprintBytes() >= totalBytes(records) {
		t.Fatalf("turbo footprint %d should beat sum-of-sizes %d",
			p.FootprintBytes(), totalBytes(records))
	}
}

func TestGSOCReallocatesEveryInference(t *testing.T) {
	dev := NewDevice()
	a := NewGSOC(dev)
	records := chainRecords(1<<18, 1<<18)
	a.Plan(records)
	before := dev.Snapshot()
	a.Plan(records)
	delta := dev.Snapshot().Sub(before)
	if delta.AllocCount != 1 || delta.FreeCount != 1 {
		t.Fatalf("GSOC should realloc its arena every inference: %+v", delta)
	}
}

func TestGSOCOffsetsNearOptimalForChain(t *testing.T) {
	// A pure chain can run in max+secondmax bytes (producer+consumer live).
	records := chainRecords(100, 200, 300, 400)
	offsets, arena := GreedyBySizeOffsets(records)
	if err := Validate(&Plan{
		Assignments: toAssignments(offsets),
		Chunks:      []*Buffer{{Size: arena}},
	}, records); err != nil {
		t.Fatal(err)
	}
	if arena > 700 {
		t.Fatalf("arena %d, want <= 700 (400+300)", arena)
	}
}

func toAssignments(offsets map[int]int64) map[int]Assignment {
	m := make(map[int]Assignment, len(offsets))
	for id, off := range offsets {
		m[id] = Assignment{Chunk: 0, Offset: off}
	}
	return m
}

func TestCachingNeverReturnsMemory(t *testing.T) {
	dev := NewDevice()
	a := NewCaching(dev)
	big := chainRecords(8<<20, 8<<20, 8<<20)
	a.Plan(big)
	peakLive := dev.Snapshot().LiveBytes
	small := chainRecords(1 << 10)
	a.Plan(small)
	if dev.Snapshot().LiveBytes != peakLive {
		t.Fatalf("caching allocator must hold its cache: %d -> %d",
			peakLive, dev.Snapshot().LiveBytes)
	}
	a.Release()
	if dev.Snapshot().LiveBytes != 0 {
		t.Fatal("Release must empty the cache")
	}
}

func TestCachingReusesBlocks(t *testing.T) {
	dev := NewDevice()
	a := NewCaching(dev)
	records := chainRecords(1<<16, 1<<16, 1<<16)
	a.Plan(records)
	before := dev.Snapshot()
	a.Plan(records)
	delta := dev.Snapshot().Sub(before)
	if delta.AllocCount != 0 {
		t.Fatalf("identical replay should hit cache, got %d allocs", delta.AllocCount)
	}
}

func TestCachingLargePoolRounding(t *testing.T) {
	a := NewCaching(NewDevice())
	if got := a.round(3 << 20); got != (4 << 20) {
		t.Fatalf("large pool rounding: %d", got)
	}
	if got := a.round(100); got != 512 {
		t.Fatalf("small pool rounding: %d", got)
	}
}

func TestNaiveArenaNeverShrinks(t *testing.T) {
	dev := NewDevice()
	a := NewNaiveArena(dev)
	a.Plan(chainRecords(16 << 20))
	peak := dev.Snapshot().LiveBytes
	a.Plan(chainRecords(1 << 10))
	if dev.Snapshot().LiveBytes != peak {
		t.Fatal("naive arena must not shrink")
	}
}

func TestNaivePow2(t *testing.T) {
	cases := map[int64]int64{0: 1, 1: 1, 2: 2, 3: 4, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Fatalf("nextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

// The paper's footprint ordering (Fig. 11): on a variable-length request
// stream, Turbo ≈ GSOC ≪ PyTorch-style ≤ onnxrt-style.
func TestFootprintOrderingOnVariableLengthStream(t *testing.T) {
	lens := []int{437, 202, 393, 460, 220, 25, 137, 499, 266, 12, 52, 373}
	mkRecords := func(seq int) []UsageRecord {
		// Rough BERT-layer-shaped sizes (bytes scale with seq and seq²).
		s := int64(seq)
		return []UsageRecord{
			{TensorID: 0, Name: "qkv_out", FirstOp: 0, LastOp: 1, Size: s * 2304 * 4},
			{TensorID: 1, Name: "q", FirstOp: 1, LastOp: 2, Size: s * 768 * 4},
			{TensorID: 2, Name: "k", FirstOp: 1, LastOp: 2, Size: s * 768 * 4},
			{TensorID: 3, Name: "v", FirstOp: 1, LastOp: 3, Size: s * 768 * 4},
			{TensorID: 4, Name: "scores", FirstOp: 2, LastOp: 3, Size: 12 * s * s * 4},
			{TensorID: 5, Name: "ctx", FirstOp: 3, LastOp: 4, Size: s * 768 * 4},
			{TensorID: 6, Name: "attn_out", FirstOp: 4, LastOp: 6, Size: s * 768 * 4},
			{TensorID: 7, Name: "inter", FirstOp: 6, LastOp: 7, Size: s * 3072 * 4},
			{TensorID: 8, Name: "layer_out", FirstOp: 7, LastOp: 8, Size: s * 768 * 4},
		}
	}
	peak := map[string]int64{}
	for _, mk := range []func() (Allocator, *Device){
		func() (Allocator, *Device) { d := NewDevice(); return NewTurbo(d), d },
		func() (Allocator, *Device) { d := NewDevice(); return NewGSOC(d), d },
		func() (Allocator, *Device) { d := NewDevice(); return NewCaching(d), d },
		func() (Allocator, *Device) { d := NewDevice(); return NewNaiveArena(d), d },
	} {
		a, dev := mk()
		for _, l := range lens {
			records := mkRecords(l)
			p := a.Plan(records)
			if err := Validate(p, records); err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
		}
		peak[a.Name()] = dev.Snapshot().PeakBytes
	}
	if peak["Turbo"] > peak["PyTorch"] || peak["Turbo"] > peak["onnxrt"] {
		t.Fatalf("turbo footprint should beat the caching allocators: %+v", peak)
	}
	if peak["GSOC"] > peak["PyTorch"] || peak["GSOC"] > peak["onnxrt"] {
		t.Fatalf("GSOC footprint should beat the caching allocators: %+v", peak)
	}
	// Turbo within ~1.6x of GSOC's near-optimal footprint (chunking overhead).
	if float64(peak["Turbo"]) > 1.6*float64(peak["GSOC"]) {
		t.Fatalf("turbo %d too far above GSOC %d", peak["Turbo"], peak["GSOC"])
	}
}

func TestTurboParamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTurboWithParams(NewDevice(), 0, 1.2)
}

func TestValidateCatchesOverlap(t *testing.T) {
	records := []UsageRecord{
		{TensorID: 0, FirstOp: 0, LastOp: 5, Size: 100},
		{TensorID: 1, FirstOp: 0, LastOp: 5, Size: 100},
	}
	p := &Plan{
		Assignments: map[int]Assignment{
			0: {Chunk: 0, Offset: 0},
			1: {Chunk: 0, Offset: 50}, // overlaps tensor 0
		},
		Chunks: []*Buffer{{Size: 1 << 20}},
	}
	if Validate(p, records) == nil {
		t.Fatal("Validate must catch spatial overlap")
	}
}

func TestValidateCatchesMissingTensor(t *testing.T) {
	records := []UsageRecord{{TensorID: 7, FirstOp: 0, LastOp: 0, Size: 4}}
	p := &Plan{Assignments: map[int]Assignment{}, Chunks: nil}
	if Validate(p, records) == nil {
		t.Fatal("Validate must catch missing assignment")
	}
}

func TestPlanTensorData(t *testing.T) {
	a := NewTurbo(NewDevice())
	records := []UsageRecord{{TensorID: 3, FirstOp: 0, LastOp: 1, Size: 64}}
	p := a.Plan(records)
	data := p.TensorData(3, 16)
	if len(data) != 16 {
		t.Fatalf("len=%d", len(data))
	}
	data[0] = 42 // must be writable backing memory
	if p.TensorData(3, 16)[0] != 42 {
		t.Fatal("TensorData must view stable storage")
	}
}

// totalBytes sums the records' sizes — the footprint an allocator with no
// reuse at all would need.
func totalBytes(records []UsageRecord) int64 {
	var total int64
	for _, r := range records {
		total += r.Size
	}
	return total
}
