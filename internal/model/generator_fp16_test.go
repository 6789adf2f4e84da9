package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/allocator"
)

// TestFP16RaggedDecodeBitIdenticalToPerRowFuzz is the fp16 twin of the fp32
// tentpole property test: on fuzzed continuous-batching schedules, the
// grouped fp16 decode path (the span kernel over binary16 block views) must
// produce BIT-IDENTICAL token streams to the per-row fp16 reference
// (Decoder.attend) reading the same blocks — batching strangers together
// must never perturb a stream.
func TestFP16RaggedDecodeBitIdenticalToPerRowFuzz(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	cfg := genTestConfig()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		n := 1 + rng.Intn(5)
		mems := make([]int, n)
		budgets := make([]int, n)
		joinAt := make([]int, n)
		evictAt := make([]int, n)
		for i := 0; i < n; i++ {
			mems[i] = 1 + rng.Intn(17)
			budgets[i] = 1 + rng.Intn(20)
			joinAt[i] = rng.Intn(6)
			evictAt[i] = -1
			if rng.Intn(4) == 0 {
				evictAt[i] = 1 + rng.Intn(8)
			}
		}
		joinAt[0] = 0

		grouped, _, _ := newTestGenerator(t, cfg, 0, 0)
		grouped.EnableFP16()
		perRow, _, _ := newTestGenerator(t, cfg, 0, 0)
		perRow.EnableFP16()
		perRow.PerRowAttention = true

		got := raggedRun(t, grouped, mems, budgets, joinAt, evictAt, int64(trial)*37)
		want := raggedRun(t, perRow, mems, budgets, joinAt, evictAt, int64(trial)*37)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d session %d: grouped %v vs per-row %v", trial, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d session %d token %d: grouped %d vs per-row %d",
						trial, i, j, got[i][j], want[i][j])
				}
			}
		}
		if grouped.FusedLaunches() == 0 {
			t.Fatal("grouped fp16 run dispatched no fused attention chains")
		}
		if perRow.FusedLaunches() != 0 {
			t.Fatal("per-row fp16 run counted fused chains")
		}
	}
}

// TestFP16PagedBitIdenticalToContiguous closes the fp16 quartet: paged
// grouped and paged per-row streams must match the contiguous fp16 streams
// token for token — blocked binary16 K/V reads are exact resumptions of the
// contiguous accumulation. The last session's budget runs past one 64-row
// binary16 block.
func TestFP16PagedBitIdenticalToContiguous(t *testing.T) {
	cfg := genTestConfig()
	cfg.MaxTargetLen = 3 * KVChunkTokens
	mems := []int{5, 1, 11, 17, 3}
	budgets := []int{9, 14, 3, 20, 3 * KVChunkTokens}
	joinAt := []int{0, 2, 1, 0, 1}
	evictAt := []int{-1, -1, -1, 6, -1}

	most := 0
	mk := func(paged, perRow bool) [][]int {
		t.Helper()
		var g *Generator
		hook := blockWatch(t, 2*cfg.Layers, new(int))
		if paged {
			g, _, _ = newTestGenerator(t, cfg, 0, 0)
			hook = blockWatch(t, 0, &most)
		} else {
			g, _ = newContiguousGenerator(t, cfg)
		}
		g.EnableFP16()
		g.PerRowAttention = perRow
		return scheduleRun(t, g, mems, budgets, joinAt, evictAt, 71, hook)
	}

	want := mk(false, false)
	for _, variant := range []struct {
		name   string
		paged  bool
		perRow bool
	}{
		{"contiguous-per-row", false, true},
		{"paged-grouped", true, false},
		{"paged-per-row", true, true},
	} {
		got := mk(variant.paged, variant.perRow)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s session %d: %v vs %v", variant.name, i, got[i], want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s session %d token %d: %d vs %d",
						variant.name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	if most <= 2*cfg.Layers {
		t.Fatalf("no paged fp16 session crossed a block boundary (most blocks held %d)", most)
	}
}

// TestFP16KVBytesHalved pins the capacity claim at the accounting layer:
// binary16 KV rows must cost exactly half the bytes — the per-token unit,
// and the used gauge as tokens land in the same pool blocks — and both
// gauges must be released on Free.
func TestFP16KVBytesHalved(t *testing.T) {
	cfg := genTestConfig()
	g32, _, _ := newTestGenerator(t, cfg, 0, 0)
	g16, _, _ := newTestGenerator(t, cfg, 0, 0)
	g16.EnableFP16()
	if g16.KVRowBytes()*2 != g32.KVRowBytes() {
		t.Fatalf("KVRowBytes fp16 %d, fp32 %d — want exactly half", g16.KVRowBytes(), g32.KVRowBytes())
	}

	const layers, hidden = 2, 8
	for _, half := range []bool{false, true} {
		dev := allocator.NewDevice()
		pool := allocator.NewBlockPool(dev, int64(KVChunkTokens)*hidden*4, 16)
		c, err := newBlockKVCache(pool, layers, hidden, half)
		if err != nil {
			t.Fatal(err)
		}
		perTok := int64(layers) * 2 * hidden * kvElemBytes(half)
		row := make([]float32, hidden)
		for tok := 1; tok <= 3; tok++ {
			if !c.EnsureAppendable() {
				t.Fatal("pool exhausted in a sized test")
			}
			for l := 0; l < layers; l++ {
				c.AppendRow(l, row, row)
			}
			c.Advance()
			if used := dev.Snapshot().KVUsedBytes; used != int64(tok)*perTok {
				t.Fatalf("half=%v after %d tokens: used %d, want %d", half, tok, used, int64(tok)*perTok)
			}
		}
		c.Free()
		if snap := dev.Snapshot(); snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
			t.Fatalf("half=%v: gauges not released: reserved=%d used=%d", half, snap.KVReservedBytes, snap.KVUsedBytes)
		}
	}
}

// TestFP16BlockTokensDoubled: on the same pool geometry (blocks sized for
// KVChunkTokens fp32 rows), a binary16 paged cache packs exactly twice the
// tokens per block — the paged form of the 2× capacity win.
func TestFP16BlockTokensDoubled(t *testing.T) {
	dev := allocator.NewDevice()
	const hidden, layers = 16, 2
	pool := allocator.NewBlockPool(dev, int64(KVChunkTokens)*hidden*4, 64)
	defer pool.Close()
	c32, err := NewBlockKVCache(pool, layers, hidden)
	if err != nil {
		t.Fatal(err)
	}
	c16, err := NewBlockKVCacheF16(pool, layers, hidden)
	if err != nil {
		t.Fatal(err)
	}
	defer c32.Free()
	defer c16.Free()
	if c16.BlockTokens() != 2*c32.BlockTokens() {
		t.Fatalf("fp16 blockTok %d, fp32 %d — want exactly double", c16.BlockTokens(), c32.BlockTokens())
	}

	// Fill both two blocks' worth of fp32 tokens: the fp16 cache must hold
	// them in half the blocks.
	row := make([]float32, hidden)
	for tok := 0; tok < 2*c32.BlockTokens(); tok++ {
		for _, c := range []*BlockKVCache{c32, c16} {
			if !c.EnsureAppendable() {
				t.Fatal("pool exhausted in a sized test")
			}
			for l := 0; l < layers; l++ {
				c.AppendRow(l, row, row)
			}
			c.Advance()
		}
	}
	if c16.Blocks()*2 != c32.Blocks() {
		t.Fatalf("fp16 holds %d blocks vs fp32 %d — want half", c16.Blocks(), c32.Blocks())
	}
}

// TestFP16SessionCapacityDoubled: with one shared pool, fp16 admits exactly
// twice the sessions at a multi-block context depth — the serving-level
// statement of the KV halving (a 2·KVChunkTokens context spans two fp32
// blocks per table but only one binary16 block).
func TestFP16SessionCapacityDoubled(t *testing.T) {
	const layers, hidden, depth = 2, 16, 2 * KVChunkTokens
	count := func(fp16 bool) int {
		t.Helper()
		dev := allocator.NewDevice()
		pool := allocator.NewBlockPool(dev, int64(KVChunkTokens)*hidden*4, 48)
		defer pool.Close()
		newC := NewBlockKVCache
		if fp16 {
			newC = NewBlockKVCacheF16
		}
		row := make([]float32, hidden)
		admitted := 0
		var open []*BlockKVCache
		defer func() {
			for _, c := range open {
				c.Free()
			}
		}()
		for {
			c, err := newC(pool, layers, hidden)
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, c)
			for tok := 0; tok < depth; tok++ {
				if !c.EnsureAppendable() {
					return admitted
				}
				for l := 0; l < layers; l++ {
					c.AppendRow(l, row, row)
				}
				c.Advance()
			}
			admitted++
		}
	}
	n32, n16 := count(false), count(true)
	if n16 != 2*n32 {
		t.Fatalf("pool held %d fp16 sessions at depth %d vs %d fp32 — want exactly 2×", n16, depth, n32)
	}
}

// TestFP16GeneratorToleranceVsFP32 is the engine-level tolerance oracle on
// the decode side: stepping identical fresh sessions through the fp32 and
// fp16 routes, the vocab logits must stay within the documented relative
// error bound — and must not be bit-identical (the rounding is real).
func TestFP16GeneratorToleranceVsFP32(t *testing.T) {
	cfg := genTestConfig()
	g32, _, _ := newTestGenerator(t, cfg, 0, 0)
	g16, _, _ := newTestGenerator(t, cfg, 0, 0)
	g16.EnableFP16()

	open := func(g *Generator, i int, srcLen int) *GenSession {
		t.Helper()
		s, err := g.NewSession(int64(i), []int{500 + i}, testMemory(int64(100+i), srcLen, cfg.Hidden), 12)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lens := []int{3, 9, 1, 14}
	var live32, live16 []*GenSession
	for i, srcLen := range lens {
		live32 = append(live32, open(g32, i, srcLen))
		live16 = append(live16, open(g16, i, srcLen))
	}
	maxRel := 0.0
	vocab := cfg.Vocab
	for step := 0; step < 6; step++ {
		if _, err := g32.Step(live32); err != nil {
			t.Fatal(err)
		}
		if _, err := g16.Step(live16); err != nil {
			t.Fatal(err)
		}
		ref := g32.dec.scr.logits[:len(live32)*vocab]
		got := g16.dec.scr.logits[:len(live16)*vocab]
		for i := range ref {
			rel := math.Abs(float64(got[i])-float64(ref[i])) / (math.Abs(float64(ref[i])) + 1e-3)
			if rel > maxRel {
				maxRel = rel
			}
		}
		// Keep the two batches aligned: fp16 may pick different tokens
		// late in a stream, so force the same continuation on both.
		for i := range live16 {
			live16[i].next = live32[i].next
			if live32[i].done != live16[i].done {
				live16[i].done = live32[i].done
			}
		}
		kept32, kept16 := live32[:0], live16[:0]
		for i := range live32 {
			if live32[i].done {
				live32[i].Close()
				live16[i].Close()
				continue
			}
			kept32 = append(kept32, live32[i])
			kept16 = append(kept16, live16[i])
		}
		live32, live16 = kept32, kept16
		if len(live32) == 0 {
			break
		}
	}
	for i := range live32 {
		live32[i].Close()
		live16[i].Close()
	}
	// The vocab projection sits past every LayerNorm, so logit drift
	// runs a little past the single-layer bound; 5e-2 is the documented
	// decode-logit tolerance (DESIGN.md §2d).
	if maxRel > 5e-2 {
		t.Fatalf("fp16 decode max relative logit error %.4g exceeds 5e-2", maxRel)
	}
	if maxRel == 0 {
		t.Fatalf("fp16 logits bit-identical to fp32 — rounding not applied")
	}
}

// TestFP16PrefixReplayBitIdentical: retiring an fp16 session and
// re-asking the same prompt must replay the cached stream and continue
// bit-identically past it — MapFrom carries the binary16 half mode through.
func TestFP16PrefixReplayBitIdentical(t *testing.T) {
	cfg := genTestConfig()
	prompt := []int{7, 3, 11}
	mem := testMemory(5, 6, cfg.Hidden)

	// Reference: one uninterrupted fp16 generation to budget 20.
	gRef, _, _ := newTestGenerator(t, cfg, 4096, 4)
	gRef.EnableFP16()
	sRef, err := gRef.NewSession(1, prompt, mem, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, gRef, sRef)

	// Split run: decode 8, retire, reopen (no memory — prefix hit), continue.
	g, _, _ := newTestGenerator(t, cfg, 4096, 4)
	g.EnableFP16()
	s1, err := g.NewSession(1, prompt, mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, g, s1)
	g.Retire(s1)
	s2, err := g.NewSession(2, prompt, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, g, s2)
	s2.Close()

	if len(got) != len(want) {
		t.Fatalf("replayed stream %v vs reference %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: replay %d vs reference %d", i, got[i], want[i])
		}
	}
	if g.PrefixStats().Hits == 0 {
		t.Fatal("second session did not hit the prefix cache")
	}
}
