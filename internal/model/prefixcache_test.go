package model

import (
	"errors"
	"testing"

	"repro/internal/allocator"
	"repro/internal/tensor"
)

// newTestGenerator builds a generator over its own device, with a pool of
// capBlocks blocks and a prefix cache of prefixCap entries (0: the defaults).
func newTestGenerator(t testing.TB, cfg Config, capBlocks, prefixCap int) (*Generator, *allocator.Device, *allocator.BlockPool) {
	t.Helper()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 42, dev, capBlocks, prefixCap)
	if err != nil {
		t.Fatal(err)
	}
	return g, dev, g.BlockPool()
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

	// Reference streams from a fresh generator with nothing retired.
	freshAt := func(budget int) []int {
		g, _, _ := newTestGenerator(t, cfg, 0, 0)
		s, err := g.NewSession(1, prompt, mem(), budget)
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

	g, dev, pool := newTestGenerator(t, cfg, 4096, 8)

	// Miss: decode the small budget from scratch, then retire it.
	s1, err := g.NewSession(1, prompt, mem(), small)
	if err != nil {
		t.Fatal(err)
	}
	got1 := drain(t, g, s1)
	g.Retire(s1)
	for i := range wantSmall {
		if got1[i] != wantSmall[i] {
			t.Fatalf("miss stream %v != fresh %v", got1, wantSmall)
		}
	}

	// Hit, same budget: born done, zero decode steps, zero new blocks.
	usedBefore := pool.Stats().UsedBlocks
	s2, err := g.NewSession(2, prompt, nil, small) // nil memory: encoder skipped
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
	s3, err := g.NewSession(3, prompt, nil, large)
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
	s4, err := g.NewSession(4, prompt, nil, small)
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
	s5, err := g.NewSession(5, prompt, nil, large)
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
	g, _, pool := newTestGenerator(t, cfg, 6, 4)
	var sessions []*GenSession
	for i := 0; i < 2; i++ {
		s, err := g.NewSession(int64(i), []int{i}, testMemory(int64(i), 4, cfg.Hidden), 8)
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
