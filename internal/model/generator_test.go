package model

import (
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
// same token stream as the one-shot beam-1 decoder over the same weights.
func TestGeneratorMatchesGreedy(t *testing.T) {
	cfg := genTestConfig()
	g, err := NewGenerator(cfg, 42, allocator.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	mem := testMemory(7, 9, cfg.Hidden)

	sess, err := g.NewSession(1, mem, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := drain(t, g, sess)

	hyp, err := g.Decoder().Greedy(mem, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no tokens generated")
	}
	if len(got) != len(hyp.Tokens) {
		t.Fatalf("generator %v vs greedy %v", got, hyp.Tokens)
	}
	for i := range got {
		if got[i] != hyp.Tokens[i] {
			t.Fatalf("token %d: generator %d vs greedy %d", i, got[i], hyp.Tokens[i])
		}
	}
}

// TestGeneratorBatchedMatchesSolo is the continuous-batching correctness
// invariant: a request's stream is bit-identical whether it decodes alone
// or raggedly batched with strangers that join and leave mid-flight.
func TestGeneratorBatchedMatchesSolo(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 42, dev)
	if err != nil {
		t.Fatal(err)
	}
	mems := []*tensor.Tensor{
		testMemory(1, 5, cfg.Hidden),
		testMemory(2, 13, cfg.Hidden),
		testMemory(3, 8, cfg.Hidden),
	}
	budgets := []int{6, 14, 10}

	// Reference streams: each request alone.
	solo := make([][]int, len(mems))
	for i, mem := range mems {
		sess, err := g.NewSession(int64(100+i), mem, budgets[i])
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
				s, err := g.NewSession(int64(i), mems[i], budgets[i])
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
	// After all sessions close, only the plan-reused decode workspace stays
	// live; every KV byte (and both KV gauges) must be back to zero.
	snap := dev.Snapshot()
	if want := g.Decoder().DecodeScratchBytes(); snap.LiveBytes != want {
		t.Fatalf("KV memory leaked: %d live bytes, want only the %d-byte decode scratch", snap.LiveBytes, want)
	}
	if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
		t.Fatalf("KV gauges not released: reserved=%d used=%d", snap.KVReservedBytes, snap.KVUsedBytes)
	}
}

// TestKVCacheGrowthAndAccounting checks the chunked growth policy and that
// every byte is returned on Free.
func TestKVCacheGrowthAndAccounting(t *testing.T) {
	dev := allocator.NewDevice()
	const layers, hidden = 2, 8
	c, err := NewKVCache(dev, layers, hidden, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.CapTokens() != KVChunkTokens {
		t.Fatalf("initial capacity %d, want one chunk (%d)", c.CapTokens(), KVChunkTokens)
	}
	row := make([]float32, hidden)
	for tok := 0; tok < KVChunkTokens+3; tok++ {
		for i := range row {
			row[i] = float32(tok*hidden + i)
		}
		for l := 0; l < layers; l++ {
			c.AppendRow(l, row, row)
		}
		c.Advance()
	}
	if c.Len() != KVChunkTokens+3 {
		t.Fatalf("len %d", c.Len())
	}
	if c.CapTokens() <= KVChunkTokens {
		t.Fatal("cache did not grow past its first chunk")
	}
	if c.CapTokens()%KVChunkTokens != 0 {
		t.Fatalf("capacity %d not chunk-aligned", c.CapTokens())
	}
	// Rows must survive the growth copy.
	ks, _ := c.Spans(1)
	k := ks.F32[0]
	for tok := 0; tok < c.Len(); tok++ {
		if k[tok*hidden] != float32(tok*hidden) {
			t.Fatalf("row %d corrupted after growth: %f", tok, k[tok*hidden])
		}
	}
	snap := dev.Snapshot()
	if snap.LiveBytes != c.Bytes() {
		t.Fatalf("device live %d != cache bytes %d", snap.LiveBytes, c.Bytes())
	}
	c.Free()
	if dev.Snapshot().LiveBytes != 0 {
		t.Fatalf("free left %d live bytes", dev.Snapshot().LiveBytes)
	}
}

// TestSessionBudgetReservation: a session's KV is sized for its whole
// budget up front, so admission control can reserve worst case.
func TestSessionBudgetReservation(t *testing.T) {
	cfg := genTestConfig()
	dev := allocator.NewDevice()
	g, err := NewGenerator(cfg, 1, dev)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := g.NewSession(1, testMemory(4, 6, cfg.Hidden), 20)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// The first Step plans the decode workspace; after that, neither the KV
	// cache (reserved up front) nor the workspace (plan covers the whole
	// budget's context growth) may allocate again.
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
		t.Fatalf("KV or scratch reallocated %d times mid-generation despite up-front reservation", grew)
	}
}
