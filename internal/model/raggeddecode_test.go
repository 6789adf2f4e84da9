package model

import (
	"math/rand"
	"testing"

	"repro/internal/allocator"
)

// scheduleRun drives a fuzzed continuous-batching schedule on g: session i
// joins at joinAt[i] (a contiguous-KV session, or a paged one over a prompt
// unique to it — no sharing, pure paging), steps raggedly with whoever is
// live, and leaves when done or, if evictAt[i] is set, once it has
// generated that many tokens (a request whose client vanished leaves the
// batch even though it is not done). afterStep, if non-nil, sees the live
// batch after every decode iteration. Returns each session's stream.
func scheduleRun(t *testing.T, g *Generator, paged bool, mems, budgets, joinAt, evictAt []int, seed int64, afterStep func(live []*GenSession)) [][]int {
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
			live = append(live, openScheduleSession(t, g, paged, i, mems[i], budgets[i], seed))
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

// openScheduleSession opens session i of a fuzzed schedule on the store kind
// asked for: a paged session keyed by a prompt unique to (i, seed, mem), or a
// contiguous one.
func openScheduleSession(tb testing.TB, g *Generator, paged bool, i, mem, budget int, seed int64) *GenSession {
	tb.Helper()
	memory := testMemory(seed+int64(i), mem, g.Cfg.Hidden)
	var s *GenSession
	var err error
	if paged {
		s, err = g.NewPagedSession(int64(i), []int{1000 + i, int(seed), mem}, memory, budget)
	} else {
		s, err = g.NewSession(int64(i), memory, budget)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// raggedRun is scheduleRun over contiguous-KV sessions.
func raggedRun(t *testing.T, g *Generator, mems []int, budgets, joinAt, evictAt []int, seed int64) [][]int {
	t.Helper()
	return scheduleRun(t, g, false, mems, budgets, joinAt, evictAt, seed, nil)
}

// TestRaggedDecodeBitIdenticalToPerRowFuzz is the tentpole property test:
// on fuzzed session sets with mixed prompt lengths, mixed context lengths,
// and mid-run admit/evict, the grouped ragged decode path must produce
// BIT-IDENTICAL token streams to the per-row reference attention. Streams
// are compared exactly — any ulp drift in the grouped kernels would surface
// as a diverging argmax somewhere across the fuzz corpus.
func TestRaggedDecodeBitIdenticalToPerRowFuzz(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	cfg := genTestConfig()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)    // mixed prompt lengths
			budgets[i] = 1 + rng.Intn(20) // mixed context budgets
			joinAt[i] = rng.Intn(6)       // staggered admission
			evictAt[i] = -1
			if rng.Intn(4) == 0 { // occasional client-gone eviction
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		// At least one session must join at step 0 or the run stalls.
		joinAt[0] = 0

		ragged, err := NewGenerator(cfg, 42, allocator.NewDevice())
		if err != nil {
			t.Fatal(err)
		}
		perRow, err := NewGenerator(cfg, 42, allocator.NewDevice())
		if err != nil {
			t.Fatal(err)
		}
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
	}
}

// TestDecodeScratchPlanReuse: the decode workspace must be planned, reused
// across iterations while the (rows, Σcontext) key fits, and replanned —
// with Malloc/Free visible in device traffic — only when it grows.
func TestDecodeScratchPlanReuse(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 9, dev)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*GenSession
	for i := 0; i < 3; i++ {
		s, err := g.NewSession(int64(i), testMemory(int64(i), 4+i, cfg.Hidden), 24)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		defer s.Close()
	}
	if g.Decoder().DecodeScratchBytes() != 0 {
		t.Fatal("scratch allocated before any decode step")
	}
	if _, err := g.Step(sessions); err != nil {
		t.Fatal(err)
	}
	scratch := g.Decoder().DecodeScratchBytes()
	if scratch == 0 {
		t.Fatal("decode scratch not device-accounted")
	}
	// The workspace shows up in the same MemoryStats as the KV caches.
	var kv int64
	for _, s := range sessions {
		kv += s.KVBytes()
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

// TestKVReservedVsUsedGauges: the device must report the up-front KV
// reservation and the actually-occupied bytes separately, with used ≤
// reserved throughout and both released on Free.
func TestKVReservedVsUsedGauges(t *testing.T) {
	dev := allocator.NewDevice()
	const layers, hidden, grant = 2, 8, 10
	c, err := NewKVCache(dev, layers, hidden, grant)
	if err != nil {
		t.Fatal(err)
	}
	perTok := int64(layers) * 2 * hidden * 4
	snap := dev.Snapshot()
	// One ledger: the reserved gauge carries exactly the admission grant —
	// not the chunk-rounded, headroom-scaled buffer capacity (that slack is
	// capacity and lives in LiveBytes only).
	if snap.KVReservedBytes != grant*perTok {
		t.Fatalf("reserved %d, want the %d-token admission grant (%d)", snap.KVReservedBytes, grant, grant*perTok)
	}
	if c.Bytes() <= snap.KVReservedBytes {
		t.Fatalf("buffer capacity %d not larger than the grant %d — growth headroom missing", c.Bytes(), snap.KVReservedBytes)
	}
	if snap.KVUsedBytes != 0 {
		t.Fatalf("used %d before any token", snap.KVUsedBytes)
	}
	row := make([]float32, hidden)
	for tok := 1; tok <= KVChunkTokens+2; tok++ { // outgrows the grant AND crosses a growth boundary
		for l := 0; l < layers; l++ {
			c.AppendRow(l, row, row)
		}
		c.Advance()
		snap = dev.Snapshot()
		if snap.KVUsedBytes != int64(tok)*perTok {
			t.Fatalf("after %d tokens: used %d, want %d", tok, snap.KVUsedBytes, int64(tok)*perTok)
		}
		if snap.KVUsedBytes > snap.KVReservedBytes {
			t.Fatalf("used %d exceeds reserved %d", snap.KVUsedBytes, snap.KVReservedBytes)
		}
		// Past the grant the reservation extends row by row (admission
		// under-budgeted); within it, it stays pinned to the grant.
		wantRes := int64(grant) * perTok
		if tok > grant {
			wantRes = int64(tok) * perTok
		}
		if snap.KVReservedBytes != wantRes {
			t.Fatalf("after %d tokens: reserved gauge %d, want %d", tok, snap.KVReservedBytes, wantRes)
		}
	}
	c.Free()
	c.Free() // idempotent
	snap = dev.Snapshot()
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges not released: reserved=%d used=%d", snap.KVReservedBytes, snap.KVUsedBytes)
	}
}
