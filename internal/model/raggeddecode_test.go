package model

import (
	"math/rand"
	"testing"

	"repro/internal/allocator"
)

// scheduleRun drives a fuzzed continuous-batching schedule on g: session i
// joins at joinAt[i] over a prompt unique to it (no prefix sharing, pure
// paging), steps raggedly with whoever is live, and leaves when done or, if
// evictAt[i] is set, once it has generated that many tokens (a request whose
// client vanished leaves the batch even though it is not done). afterStep, if
// non-nil, sees the live batch after every decode iteration. Returns each
// session's stream.
func scheduleRun(t *testing.T, g *Generator, mems, budgets, joinAt, evictAt []int, seed int64, afterStep func(live []*GenSession)) [][]int {
	t.Helper()
	n := len(mems)
	opened := make([]bool, n)
	streams := make([][]int, n)
	var live []*GenSession
	started := 0
	for step := 0; step < 512; step++ {
		for i := 0; i < n; i++ {
			if opened[i] || joinAt[i] != step {
				continue
			}
			opened[i] = true
			live = append(live, openScheduleSession(t, g, i, mems[i], budgets[i], seed))
			started++
		}
		if len(live) == 0 {
			if started == n {
				break
			}
			continue
		}
		if _, err := g.Step(live); err != nil {
			t.Fatal(err)
		}
		if afterStep != nil {
			afterStep(live)
		}
		kept := live[:0]
		for _, s := range live {
			i := int(s.ID)
			if s.Done() || (evictAt[i] >= 0 && len(s.Generated()) >= evictAt[i]) {
				streams[i] = append([]int(nil), s.Generated()...)
				s.Close()
				continue
			}
			kept = append(kept, s)
		}
		live = kept
	}
	if len(live) != 0 || started != n {
		t.Fatalf("schedule run did not terminate: %d live, %d/%d started", len(live), started, n)
	}
	return streams
}

// openScheduleSession opens session i of a fuzzed schedule, keyed by a
// prompt unique to (i, seed, mem).
func openScheduleSession(tb testing.TB, g *Generator, i, mem, budget int, seed int64) *GenSession {
	tb.Helper()
	memory := testMemory(seed+int64(i), mem, g.Cfg.Hidden)
	s, err := g.NewSession(int64(i), []int{1000 + i, int(seed), mem}, memory, budget)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// raggedRun is scheduleRun without a per-step hook.
func raggedRun(t *testing.T, g *Generator, mems []int, budgets, joinAt, evictAt []int, seed int64) [][]int {
	t.Helper()
	return scheduleRun(t, g, mems, budgets, joinAt, evictAt, seed, nil)
}

// TestRaggedDecodeBitIdenticalToPerRowFuzz is the tentpole property test:
// on fuzzed session sets with mixed prompt lengths, mixed context lengths —
// budgets past KVChunkTokens cross block boundaries mid-decode — and mid-run
// admit/evict, the grouped ragged decode path must produce BIT-IDENTICAL
// token streams to the per-row reference attention over the same block
// tables. Streams are compared exactly — any ulp drift in the grouped
// kernels would surface as a diverging argmax somewhere across the fuzz
// corpus. Once every session has closed, both pools hold no block and both
// devices' KV gauges read zero.
func TestRaggedDecodeBitIdenticalToPerRowFuzz(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	cfg := genTestConfig()
	cfg.MaxTargetLen = 2 * KVChunkTokens // allow boundary-crossing budgets
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)                 // mixed prompt lengths
			budgets[i] = 1 + rng.Intn(2*KVChunkTokens) // mixed context budgets
			joinAt[i] = rng.Intn(6)                    // staggered admission
			evictAt[i] = -1
			if rng.Intn(4) == 0 { // occasional client-gone eviction
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		// At least one session must join at step 0 or the run stalls.
		joinAt[0] = 0

		ragged, dev, _ := newTestGenerator(t, cfg, 0, 0)
		perRow, perRowDev, _ := newTestGenerator(t, cfg, 0, 0)
		perRow.PerRowAttention = true

		got := raggedRun(t, ragged, mems, budgets, joinAt, evictAt, int64(trial)*31)
		want := raggedRun(t, perRow, mems, budgets, joinAt, evictAt, int64(trial)*31)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d session %d: ragged %v vs per-row %v", trial, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d session %d token %d: ragged %d vs per-row %d",
						trial, i, j, got[i][j], want[i][j])
				}
			}
		}
		for name, g := range map[string]*Generator{"ragged": ragged, "per-row": perRow} {
			if used := g.BlockPool().Stats().UsedBlocks; used != 0 {
				t.Fatalf("trial %d %s: %d blocks leaked", trial, name, used)
			}
			g.Close()
		}
		for name, d := range map[string]*allocator.Device{"ragged": dev, "per-row": perRowDev} {
			if snap := d.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
				t.Fatalf("trial %d %s: KV gauges not zero: %+v", trial, name, snap)
			}
		}
	}
}

// newContiguousGenerator builds a generator whose pool blocks each hold a
// whole MaxTargetLen context, so every session's K (and V) for one layer is
// a single span — the contiguous layout, kept as the reference the
// KVChunkTokens-row block tables must match bit for bit.
func newContiguousGenerator(t testing.TB, cfg Config) (*Generator, *allocator.Device) {
	t.Helper()
	g, dev, pool := newTestGenerator(t, cfg, 0, 0)
	pool.Close()
	g.pool = allocator.NewBlockPool(dev, int64(cfg.MaxTargetLen)*int64(cfg.Hidden)*4, 16*cfg.Layers)
	return g, dev
}

// blockWatch returns a scheduleRun hook that records the most blocks any
// live session held, failing once one holds more than limit (0: no limit).
func blockWatch(t *testing.T, limit int, most *int) func(live []*GenSession) {
	return func(live []*GenSession) {
		for _, s := range live {
			n := s.kv.Blocks()
			if limit > 0 && n > limit {
				t.Fatalf("session %d holds %d blocks, want at most %d", s.ID, n, limit)
			}
			if n > *most {
				*most = n
			}
		}
	}
}

// TestPagedDecodeBitIdenticalToContiguousFuzz is the paging property: on
// fuzzed session sets with mixed prompts, budgets that cross KVChunkTokens
// block boundaries mid-decode, and mid-run admit/evict, the generator over
// its KVChunkTokens-row block tables (read as one span per block) must
// produce BIT-IDENTICAL token streams to the same schedule over contiguous
// one-block-per-table KV, AND to the per-row oracle over the paged views.
// Once every session has closed, the pools hold no block and the devices'
// KV gauges read zero.
func TestPagedDecodeBitIdenticalToContiguousFuzz(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	cfg := genTestConfig()
	cfg.MaxTargetLen = 2 * KVChunkTokens // allow boundary-crossing budgets
	mostPaged := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)
			budgets[i] = 1 + rng.Intn(2*KVChunkTokens)
			joinAt[i] = rng.Intn(6)
			evictAt[i] = -1
			if rng.Intn(4) == 0 {
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		joinAt[0] = 0

		contiguous, contDev := newContiguousGenerator(t, cfg)
		paged, pagedDev, _ := newTestGenerator(t, cfg, 0, 0)
		oracle, oracleDev, _ := newTestGenerator(t, cfg, 0, 0)
		oracle.PerRowAttention = true

		seed := int64(trial) * 17
		mostCont := 0
		want := scheduleRun(t, contiguous, mems, budgets, joinAt, evictAt, seed, blockWatch(t, 2*cfg.Layers, &mostCont))
		got := scheduleRun(t, paged, mems, budgets, joinAt, evictAt, seed, blockWatch(t, 0, &mostPaged))
		ref := raggedRun(t, oracle, mems, budgets, joinAt, evictAt, seed)
		for i := range want {
			for j := 0; j < len(want[i]) || j < len(got[i]) || j < len(ref[i]); j++ {
				if j >= len(want[i]) || j >= len(got[i]) || j >= len(ref[i]) ||
					got[i][j] != want[i][j] || ref[i][j] != want[i][j] {
					t.Fatalf("trial %d session %d: paged %v / oracle %v vs contiguous %v",
						trial, i, got[i], ref[i], want[i])
				}
			}
		}
		gens := map[string]*Generator{"contiguous": contiguous, "paged": paged, "oracle": oracle}
		devs := map[string]*allocator.Device{"contiguous": contDev, "paged": pagedDev, "oracle": oracleDev}
		for name, g := range gens {
			if used := g.BlockPool().Stats().UsedBlocks; used != 0 {
				t.Fatalf("trial %d %s: %d blocks leaked", trial, name, used)
			}
			g.Close()
			if snap := devs[name].Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
				t.Fatalf("trial %d %s: KV gauges not zero: %+v", trial, name, snap)
			}
		}
	}
	if mostPaged <= 2*cfg.Layers {
		t.Fatalf("no paged session crossed a block boundary (most blocks held %d)", mostPaged)
	}
}

// TestDecodeScratchPlanReuse: the decode workspace must be planned, reused
// across iterations while the (rows, Σcontext) key fits, and replanned —
// with Malloc/Free visible in device traffic — only when it grows.
func TestDecodeScratchPlanReuse(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 9, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*GenSession
	for i := 0; i < 3; i++ {
		s, err := g.NewSession(int64(i), []int{i}, testMemory(int64(i), 4+i, cfg.Hidden), 24)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		defer s.Close()
	}
	if g.dec.scr.bytes() != 0 {
		t.Fatal("scratch allocated before any decode step")
	}
	if _, err := g.Step(sessions); err != nil {
		t.Fatal(err)
	}
	scratch := g.dec.scr.bytes()
	if scratch == 0 {
		t.Fatal("decode scratch not device-accounted")
	}
	// The workspace shows up in the same MemoryStats as the KV caches.
	var kv int64
	for _, s := range sessions {
		kv += s.kv.Bytes()
	}
	if live := dev.Snapshot().LiveBytes; live != kv+scratch {
		t.Fatalf("live %d != kv %d + scratch %d", live, kv, scratch)
	}
	// Steady decode within the plan must not touch the allocator.
	before := dev.Snapshot().AllocCount
	for step := 0; step < 5; step++ {
		for _, s := range sessions {
			if s.Done() {
				t.Skip("stream ended before plan-reuse window (EOS); covered by other seeds")
			}
		}
		if _, err := g.Step(sessions); err != nil {
			t.Fatal(err)
		}
	}
	if grew := dev.Snapshot().AllocCount - before; grew != 0 {
		t.Fatalf("decode scratch reallocated %d times inside its plan", grew)
	}
}

// TestKVReservedVsUsedGauges: the device must report the KV blocks held and
// the bytes actually occupied separately — reserved moving one block per
// layer's K and V at each block boundary, used one committed row at a time —
// with used ≤ reserved throughout and both released on Free.
func TestKVReservedVsUsedGauges(t *testing.T) {
	dev := allocator.NewDevice()
	const layers, hidden, blockRows = 2, 8, 4
	pool := allocator.NewBlockPool(dev, blockRows*hidden*4, 64)
	c, err := NewBlockKVCache(pool, layers, hidden)
	if err != nil {
		t.Fatal(err)
	}
	perTok := int64(layers) * 2 * hidden * 4
	perDepth := int64(2*layers) * pool.BlockBytes() // one block per table
	if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges moved before any token: %+v", snap)
	}
	row := make([]float32, hidden)
	for tok := 1; tok <= 3*blockRows+1; tok++ { // crosses three block boundaries
		if !c.EnsureAppendable() {
			t.Fatal("pool exhausted in a sized test")
		}
		for l := 0; l < layers; l++ {
			c.AppendRow(l, row, row)
		}
		c.Advance()
		snap := dev.Snapshot()
		if snap.KVUsedBytes != int64(tok)*perTok {
			t.Fatalf("after %d tokens: used %d, want %d", tok, snap.KVUsedBytes, int64(tok)*perTok)
		}
		if want := int64((tok+blockRows-1)/blockRows) * perDepth; snap.KVReservedBytes != want {
			t.Fatalf("after %d tokens: reserved %d, want the %d bytes of the blocks held", tok, snap.KVReservedBytes, want)
		}
		if snap.KVUsedBytes > snap.KVReservedBytes {
			t.Fatalf("used %d exceeds reserved %d", snap.KVUsedBytes, snap.KVReservedBytes)
		}
	}
	c.Free()
	c.Free() // idempotent
	if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges not released: reserved=%d used=%d", snap.KVReservedBytes, snap.KVUsedBytes)
	}
}

// bytes returns the workspace's current device footprint.
func (s *decodeScratch) bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		return 0
	}
	return s.buf.Size
}
