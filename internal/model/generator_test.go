package model

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/allocator"
	"repro/internal/tensor"
)

func genTestConfig() Config {
	cfg := Seq2SeqDecoder()
	cfg.Hidden, cfg.Heads, cfg.Inter, cfg.Layers = 32, 4, 64, 2
	cfg.Vocab = 64
	cfg.MaxTargetLen = 32
	return cfg
}

func testMemory(seed int64, srcLen, hidden int) *tensor.Tensor {
	return tensor.RandN(seed, 0.3, srcLen, hidden)
}

// drain runs a single session to completion and returns its tokens.
func drain(t *testing.T, g *Generator, sess *GenSession) []int {
	t.Helper()
	for !sess.Done() {
		if _, err := g.Step([]*GenSession{sess}); err != nil {
			t.Fatal(err)
		}
	}
	return append([]int(nil), sess.Generated()...)
}

// TestGeneratorMatchesGreedy: the iteration-level path must produce the
// same token stream as the per-row greedy oracle over the same weights, for
// prompt widths from one row up, and whether the stream ends at its budget
// or at EOS (decoder seeds 9 and 2 emit EOS after eight tokens and at once).
func TestGeneratorMatchesGreedy(t *testing.T) {
	cfg := genTestConfig()
	for _, tc := range []struct {
		decSeed, memSeed int64
		width, budget    int
		eos              bool // the stream ends at EOS, not at its budget
	}{
		{decSeed: 42, memSeed: 7, width: 9, budget: 16},
		{decSeed: 42, memSeed: 1, width: 1, budget: 5},
		{decSeed: 42, memSeed: 2, width: 3, budget: 24},
		{decSeed: 42, memSeed: 3, width: 19, budget: 24},
		{decSeed: 42, memSeed: 4, width: 12, budget: 1},
		{decSeed: 9, memSeed: 3, width: 9, budget: 24, eos: true},
		{decSeed: 9, memSeed: 1, width: 19, budget: 4},
		{decSeed: 2, memSeed: 5, width: 5, budget: 24, eos: true},
	} {
		name := fmt.Sprintf("dec%d/mem%d/w%d/n%d", tc.decSeed, tc.memSeed, tc.width, tc.budget)
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(cfg, tc.decSeed, nil, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			mem := testMemory(tc.memSeed, tc.width, cfg.Hidden)
			sess, err := g.NewSession(1, []int{7}, mem, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			got := drain(t, g, sess)

			want, err := g.dec.greedy(mem, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("generator %v vs greedy %v", got, want)
			}
			if hitEos := got[len(got)-1] == TokEos; hitEos != tc.eos || (!hitEos && len(got) != tc.budget) {
				t.Fatalf("stream %v (budget %d) does not end the way the case says (eos %v)", got, tc.budget, tc.eos)
			}
		})
	}
}

// TestGeneratorBatchedMatchesSolo is the continuous-batching correctness
// invariant: a request's stream is bit-identical whether it decodes alone
// or raggedly batched with strangers that join and leave mid-flight.
func TestGeneratorBatchedMatchesSolo(t *testing.T) {
	cfg := genTestConfig()
	g, dev, _ := newTestGenerator(t, cfg, 0, 0)
	mems := []*tensor.Tensor{
		testMemory(1, 5, cfg.Hidden),
		testMemory(2, 13, cfg.Hidden),
		testMemory(3, 8, cfg.Hidden),
	}
	budgets := []int{6, 14, 10}

	// Reference streams: each request alone (closed, not retired, so the
	// ragged run below decodes rather than replays).
	solo := make([][]int, len(mems))
	for i, mem := range mems {
		sess, err := g.NewSession(int64(100+i), []int{i}, mem, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = drain(t, g, sess)
		sess.Close()
	}

	// Ragged run: session 0 starts alone, 1 joins after two iterations,
	// 2 joins after four; everyone leaves when done.
	sessions := make([]*GenSession, len(mems))
	var live []*GenSession
	step := 0
	joinAt := map[int]int{0: 0, 1: 2, 2: 4}
	for {
		for i, at := range joinAt {
			if at == step {
				s, err := g.NewSession(int64(i), []int{i}, mems[i], budgets[i])
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			break
		}
		if _, err := g.Step(live); err != nil {
			t.Fatal(err)
		}
		kept := live[:0]
		for _, s := range live {
			if !s.Done() {
				kept = append(kept, s)
			}
		}
		live = kept
		step++
		if step > 64 {
			t.Fatal("ragged run did not terminate")
		}
	}
	for i, s := range sessions {
		got := s.Generated()
		if len(got) != len(solo[i]) {
			t.Fatalf("session %d: batched %v vs solo %v", i, got, solo[i])
		}
		for j := range got {
			if got[j] != solo[i][j] {
				t.Fatalf("session %d token %d: batched %d vs solo %d", i, j, got[j], solo[i][j])
			}
		}
		s.Close()
	}
	// After all sessions close and the pool's free list is returned, only the
	// plan-reused decode workspace stays live; every KV byte (and both KV
	// gauges) must be back to zero.
	g.Close()
	snap := dev.Snapshot()
	if want := g.dec.scr.bytes(); snap.LiveBytes != want {
		t.Fatalf("KV memory leaked: %d live bytes, want only the %d-byte decode scratch", snap.LiveBytes, want)
	}
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("KV gauges not released: reserved=%d used=%d", snap.KVReservedBytes, snap.KVUsedBytes)
	}
}

// TestKVCacheGrowthAndAccounting checks that a session's KV acquires no
// block before its first row and then grows block by block, with every row
// readable in place (blocks are never copied to grow), the device seeing
// exactly the blocks held, and every byte returned on Free and pool Close.
func TestKVCacheGrowthAndAccounting(t *testing.T) {
	dev := allocator.NewDevice()
	const layers, hidden = 2, 8
	pool := allocator.NewBlockPool(dev, KVChunkTokens*hidden*4, 64)
	c, err := NewBlockKVCache(pool, layers, hidden)
	if err != nil {
		t.Fatal(err)
	}
	if c.Blocks() != 0 || dev.Snapshot().LiveBytes != 0 {
		t.Fatalf("an empty cache holds %d blocks", c.Blocks())
	}
	row := make([]float32, hidden)
	for tok := 0; tok < KVChunkTokens+3; tok++ {
		for i := range row {
			row[i] = float32(tok*hidden + i)
		}
		if !c.EnsureAppendable() {
			t.Fatal("pool exhausted in a sized test")
		}
		for l := 0; l < layers; l++ {
			c.AppendRow(l, row, row)
		}
		c.Advance()
	}
	if c.Len() != KVChunkTokens+3 {
		t.Fatalf("len %d", c.Len())
	}
	if want := 2 * layers * 2; c.Blocks() != want {
		t.Fatalf("cache holds %d blocks, want two per K and V table (%d)", c.Blocks(), want)
	}
	ks, _ := c.Spans(1)
	for tok := 0; tok < c.Len(); tok++ {
		if got := ks.F32[tok/KVChunkTokens][tok%KVChunkTokens*hidden]; got != float32(tok*hidden) {
			t.Fatalf("row %d corrupted: %f", tok, got)
		}
	}
	if live := dev.Snapshot().LiveBytes; live != c.Bytes() {
		t.Fatalf("device live %d != cache bytes %d", live, c.Bytes())
	}
	c.Free()
	pool.Close()
	if live := dev.Snapshot().LiveBytes; live != 0 {
		t.Fatalf("free left %d live bytes", live)
	}
}

// TestKVCacheMidStepFreeZeroesGauges pins the eviction-between-AppendRow-
// and-Advance path (mid-step cancel or deadline): a row appended to every
// layer but never committed — here the first row of a fresh block — must
// not leak into either KV gauge when the cache is freed.
func TestKVCacheMidStepFreeZeroesGauges(t *testing.T) {
	const layers, hidden, blockRows = 2, 8, 2
	dev := allocator.NewDevice()
	pool := allocator.NewBlockPool(dev, blockRows*hidden*4, 16)
	c, err := NewBlockKVCache(pool, layers, hidden)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, hidden)
	// Two committed tokens fill a block, then a third is appended to a new
	// block but NOT advanced — the state a mid-step eviction sees.
	for tok := 0; tok < 3; tok++ {
		if !c.EnsureAppendable() {
			t.Fatal("pool exhausted in a sized test")
		}
		for l := 0; l < layers; l++ {
			c.AppendRow(l, row, row)
		}
		if tok < 2 {
			c.Advance()
		}
	}
	c.Free()
	c.Free() // idempotent
	snap := dev.Snapshot()
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("mid-step free left gauges non-zero: reserved=%d used=%d",
			snap.KVReservedBytes, snap.KVUsedBytes)
	}
	pool.Close()
	if live := dev.Snapshot().LiveBytes; live != 0 {
		t.Fatalf("mid-step free left %d device bytes live", live)
	}
}

// TestSessionBudgetReservation: a session whose whole budget fits one block
// per table acquires every block it needs on its first step, so after that
// neither its KV nor the decode workspace (whose plan covers the budget's
// context growth) may allocate again.
func TestSessionBudgetReservation(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 1, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := g.NewSession(1, []int{4}, testMemory(4, 6, cfg.Hidden), 20)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := g.Step([]*GenSession{sess}); err != nil {
		t.Fatal(err)
	}
	before := dev.Snapshot().AllocCount
	for !sess.Done() {
		if _, err := g.Step([]*GenSession{sess}); err != nil {
			t.Fatal(err)
		}
	}
	if grew := dev.Snapshot().AllocCount - before; grew != 0 {
		t.Fatalf("KV or scratch allocated %d times after the first step", grew)
	}
}

// Bytes returns the device footprint of the blocks this cache holds
// (shared blocks included — they are live memory the cache keeps alive).
func (c *BlockKVCache) Bytes() int64 {
	return int64(c.Blocks()) * c.pool.BlockBytes()
}
