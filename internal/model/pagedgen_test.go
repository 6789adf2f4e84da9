package model

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/allocator"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// newPagedGenerator builds a generator in paged-KV mode over its own device
// and pool. Pool capacity is in blocks; block size follows KVChunkTokens.
func newPagedGenerator(t testing.TB, cfg Config, capBlocks, prefixCap int) (*Generator, *allocator.Device, *allocator.BlockPool) {
	t.Helper()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 42, dev)
	if err != nil {
		t.Fatal(err)
	}
	pool := allocator.NewBlockPool(dev, int64(KVChunkTokens)*int64(cfg.Hidden)*4, capBlocks)
	g.EnablePagedKV(pool, prefixCap)
	return g, dev, pool
}

// pagedRun is scheduleRun over paged sessions with unique prompts.
func pagedRun(t *testing.T, g *Generator, mems []int, budgets, joinAt, evictAt []int, seed int64) [][]int {
	t.Helper()
	return scheduleRun(t, g, true, mems, budgets, joinAt, evictAt, seed, nil)
}

// TestPagedDecodeBitIdenticalToContiguousFuzz is the paged tentpole
// property: on fuzzed session sets with mixed prompts, budgets, and mid-run
// admit/evict, the paged generator (block tables read as one span per block)
// must produce BIT-IDENTICAL token streams to the legacy contiguous path
// AND to the per-row oracle over the same paged views.
func TestPagedDecodeBitIdenticalToContiguousFuzz(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	cfg := genTestConfig()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)
			// Budgets past KVChunkTokens cross block boundaries mid-decode.
			budgets[i] = 1 + rng.Intn(2*KVChunkTokens)
			joinAt[i] = rng.Intn(6)
			evictAt[i] = -1
			if rng.Intn(4) == 0 {
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		joinAt[0] = 0
		cfg.MaxTargetLen = 2 * KVChunkTokens // allow boundary-crossing budgets

		legacy, err := NewGenerator(cfg, 42, allocator.NewDevice())
		if err != nil {
			t.Fatal(err)
		}
		paged, _, pool := newPagedGenerator(t, cfg, 4096, 8)
		oracle, dev2, pool2 := newPagedGenerator(t, cfg, 4096, 8)
		oracle.PerRowAttention = true

		seed := int64(trial) * 17
		want := raggedRun(t, legacy, mems, budgets, joinAt, evictAt, seed)
		got := pagedRun(t, paged, mems, budgets, joinAt, evictAt, seed)
		ref := pagedRun(t, oracle, mems, budgets, joinAt, evictAt, seed)
		for i := range want {
			for j := 0; j < len(want[i]) || j < len(got[i]) || j < len(ref[i]); j++ {
				if j >= len(want[i]) || j >= len(got[i]) || j >= len(ref[i]) ||
					got[i][j] != want[i][j] || ref[i][j] != want[i][j] {
					t.Fatalf("trial %d session %d: paged %v / oracle %v vs contiguous %v",
						trial, i, got[i], ref[i], want[i])
				}
			}
		}
		// All sessions closed: the pools must be fully drained.
		if st := pool.Stats(); st.UsedBlocks != 0 {
			t.Fatalf("trial %d: %d blocks leaked", trial, st.UsedBlocks)
		}
		pool2.Close()
		if snap := dev2.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
			t.Fatalf("trial %d: oracle gauges not zero: %+v", trial, snap)
		}
	}
}

// TestPrefixReplayAndContinuationBitIdentical pins the sharing semantics:
// a retired prompt answers an identical one by replay (encoder and decode
// skipped) and extends by block-table mapping, both bit-identical to
// decoding from scratch — the greedy determinism the WeChat fixed-question
// workload exploits.
func TestPrefixReplayAndContinuationBitIdentical(t *testing.T) {
	cfg := genTestConfig()
	cfg.MaxTargetLen = 2 * KVChunkTokens

	prompt := []int{7, 8, 9, 10}
	mem := func() *tensor.Tensor { return testMemory(99, 6, cfg.Hidden) }

	// Reference streams from a sharing-free generator.
	freshAt := func(budget int) []int {
		g, err := NewGenerator(cfg, 42, allocator.NewDevice())
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.NewSession(1, mem(), budget)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return drain(t, g, s)
	}
	const small, large = 10, 2 * KVChunkTokens
	wantSmall, wantLarge := freshAt(small), freshAt(large)
	if len(wantSmall) < small {
		t.Skip("stream hit EOS before the continuation window; covered by other seeds")
	}

	g, dev, pool := newPagedGenerator(t, cfg, 4096, 8)

	// Miss: decode the small budget from scratch, then retire it.
	s1, err := g.NewPagedSession(1, prompt, mem(), small)
	if err != nil {
		t.Fatal(err)
	}
	got1 := drain(t, g, s1)
	g.Retire(s1)
	for i := range wantSmall {
		if got1[i] != wantSmall[i] {
			t.Fatalf("paged miss stream %v != fresh %v", got1, wantSmall)
		}
	}

	// Hit, same budget: born done, zero decode steps, zero new blocks.
	usedBefore := pool.Stats().UsedBlocks
	s2, err := g.NewPagedSession(2, prompt, nil, small) // nil memory: encoder skipped
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Done() {
		t.Fatal("full prefix hit should be born done")
	}
	if got := s2.Generated(); len(got) != len(wantSmall) {
		t.Fatalf("replay %v != fresh %v", got, wantSmall)
	} else {
		for i := range got {
			if got[i] != wantSmall[i] {
				t.Fatalf("replay %v != fresh %v", got, wantSmall)
			}
		}
	}
	if pool.Stats().UsedBlocks != usedBefore {
		t.Fatal("full replay consumed pool blocks")
	}
	s2.Close()

	// Hit, larger budget: continuation maps the retired block tables
	// (sharing visible in the pool) and extends bit-identically.
	s3, err := g.NewPagedSession(3, prompt, nil, large)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Done() {
		t.Fatal("continuation should not be born done")
	}
	if pool.Stats().SharedBlocks == 0 {
		t.Fatal("continuation did not share the retired block tables")
	}
	got3 := drain(t, g, s3)
	if len(got3) != len(wantLarge) {
		t.Fatalf("continuation %v != fresh %v", got3, wantLarge)
	}
	for i := range got3 {
		if got3[i] != wantLarge[i] {
			t.Fatalf("continuation token %d: %d != fresh %d", i, got3[i], wantLarge[i])
		}
	}
	g.Retire(s3) // upgrade the entry to the longer stream

	// Smaller budget against the upgraded entry: truncated replay.
	s4, err := g.NewPagedSession(4, prompt, nil, small)
	if err != nil {
		t.Fatal(err)
	}
	if !s4.Done() {
		t.Fatal("truncated replay should be born done")
	}
	for i, tok := range s4.Generated() {
		if tok != wantSmall[i] {
			t.Fatalf("truncated replay diverged at %d", i)
		}
	}
	s4.Close()

	// Scavenge the retired KV: replay still works, continuation falls back
	// to a fresh decode — still bit-identical, still encoder-free.
	if g.ScavengePrefix(1 << 30); g.PrefixStats().KVBlocks != 0 {
		t.Fatal("scavenge left retired blocks behind")
	}
	s5, err := g.NewPagedSession(5, prompt, nil, large)
	if err != nil {
		t.Fatal(err)
	}
	var got5 []int
	if s5.Done() {
		got5 = s5.Generated()
	} else {
		got5 = drain(t, g, s5)
	}
	for i := range wantLarge {
		if i >= len(got5) || got5[i] != wantLarge[i] {
			t.Fatalf("post-scavenge stream %v != fresh %v", got5, wantLarge)
		}
	}
	s5.Close()

	st := g.PrefixStats()
	if st.Hits < 3 || st.Misses != 1 {
		t.Fatalf("prefix counters hits=%d misses=%d, want ≥3 hits and 1 miss", st.Hits, st.Misses)
	}

	// Shutdown: cache dropped, pool drained, gauges zero.
	g.ClosePrefix()
	if st := pool.Stats(); st.UsedBlocks != 0 {
		t.Fatalf("%d blocks leaked at shutdown", st.UsedBlocks)
	}
	pool.Close()
	snap := dev.Snapshot()
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("gauges not zero at shutdown: %+v", snap)
	}
}

// TestPagedPoolExhaustionRecovers: with a pool too small for everyone,
// Step fails with ErrKVPoolExhausted, and releasing one session (the
// preemption the serving loop performs) lets the batch proceed losslessly.
func TestPagedPoolExhaustionRecovers(t *testing.T) {
	cfg := genTestConfig()
	// 2 layers × (K+V) = 4 blocks per session per block-depth: capacity 6
	// fits one session and leaves the second stranded mid-ensure.
	g, _, pool := newPagedGenerator(t, cfg, 6, 4)
	var sessions []*GenSession
	for i := 0; i < 2; i++ {
		s, err := g.NewPagedSession(int64(i), []int{i}, testMemory(int64(i), 4, cfg.Hidden), 8)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if _, err := g.Step(sessions); !errors.Is(err, ErrKVPoolExhausted) {
		t.Fatalf("step over an exhausted pool: err=%v, want ErrKVPoolExhausted", err)
	}
	// Preempt the second session: its blocks return and the first proceeds.
	sessions[1].Close()
	for !sessions[0].Done() {
		if _, err := g.Step(sessions[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(sessions[0].Generated()) == 0 {
		t.Fatal("survivor generated nothing")
	}
	sessions[0].Close()
	if st := pool.Stats(); st.UsedBlocks != 0 {
		t.Fatalf("%d blocks leaked", st.UsedBlocks)
	}
}

// TestLegacyLedgerReconciliation is the one-source-of-truth cross-check:
// in legacy (contiguous) mode the device's KV-reserved gauge must equal the
// continuous scheduler's token ledger — Σ ReservedTokens(PromptLen+MaxNew)
// × KVRowBytes — exactly, for any mix of live sessions.
func TestLegacyLedgerReconciliation(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 42, dev)
	if err != nil {
		t.Fatal(err)
	}
	cs := sched.NewContinuousScheduler(8, 0)
	type pair struct {
		sess *GenSession
		req  *sched.GenRequest
	}
	var livePairs []pair
	for i, shape := range []struct{ srcLen, maxNew int }{{5, 8}, {13, 3}, {2, 16}} {
		req := &sched.GenRequest{ID: int64(i), PromptLen: shape.srcLen, MaxNew: shape.maxNew}
		cs.Enqueue(req)
		sess, err := g.NewSession(int64(i), testMemory(int64(i), shape.srcLen, cfg.Hidden), shape.maxNew)
		if err != nil {
			t.Fatal(err)
		}
		livePairs = append(livePairs, pair{sess, req})
	}
	if n := len(cs.Admit()); n != 3 {
		t.Fatalf("admitted %d of 3", n)
	}
	check := func() {
		t.Helper()
		want := int64(cs.ReservedTokens()) * g.KVRowBytes()
		if got := dev.Snapshot().KVReservedBytes; got != want {
			t.Fatalf("device KV-reserved %d, scheduler ledger %d tokens = %d bytes",
				got, cs.ReservedTokens(), want)
		}
	}
	check()
	// A few decode steps move used, never reserved.
	sessions := []*GenSession{livePairs[0].sess, livePairs[1].sess, livePairs[2].sess}
	for i := 0; i < 2; i++ {
		alive := sessions[:0]
		for _, s := range sessions {
			if !s.Done() {
				alive = append(alive, s)
			}
		}
		if len(alive) == 0 {
			break
		}
		if _, err := g.Step(alive); err != nil {
			t.Fatal(err)
		}
		sessions = alive
		check()
	}
	// Evictions refund both ledgers in lockstep.
	for _, p := range livePairs {
		cs.Evict(p.req.ID)
		p.sess.Close()
		check()
	}
	if got := dev.Snapshot().KVReservedBytes; got != 0 {
		t.Fatalf("ledger not zero after full eviction: %d", got)
	}
}
