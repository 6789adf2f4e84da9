package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// postJSON builds a recorder-level POST for driving handlers without a
// listening socket.
func postJSON(t *testing.T, path string, body interface{}) (*httptest.ResponseRecorder, *http.Request) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
}

func decodeJSON(t *testing.T, w *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.NewDecoder(w.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// pagedTestServer builds a generation server whose KV pages through a
// block pool of kvBlocks (0 = the engine default). The cleanup closes the
// engine too, so a block leaked across the server's whole lifetime panics
// the test — the shutdown accounting check rides along for free.
func pagedTestServer(t *testing.T, genMaxBatch, kvBlocks int) (*Server, *core.GenEngine) {
	t.Helper()
	encCfg := model.BertBase().Scaled(128, 4, 512, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(128, 4, 512, 2)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5, PagedKVBlocks: kvBlocks})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * 10 * time.Microsecond
	})
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      genMaxBatch,
		GenDefaultMaxNew: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		genEngine.Close() // panics if any pool block leaked
	})
	return srv, genEngine
}

// serveGen runs one generate request straight through the server's job
// path (no HTTP server needed — the recorder-level helpers below keep the
// tests fast and deterministic).
func serveGen(t *testing.T, srv *Server, text string, maxNew int) []int {
	t.Helper()
	w, r := postJSON(t, "/v1/generate", generateRequest{Text: text, MaxNewTokens: maxNew})
	srv.handleGenerate(w, r)
	if w.Code != 200 {
		t.Fatalf("generate %q: status %d: %s", text, w.Code, w.Body.String())
	}
	var out generateResponse
	decodeJSON(t, w, &out)
	return out.Tokens
}

// TestPrefixReplayMatchesFreshDecode pins the serving-level bit-identity of
// the prefix cache: first asks produce exactly the streams a second server
// decodes, repeated prompts are answered from the prefix cache (hits
// counted, replay tokens counted, no second encoder pass), and a longer
// re-ask of a cached prompt continues off the donated block tables — the
// copy-free sharing showing up in the pool's peak-shared gauge — exactly as
// a fresh decode at that budget does.
func TestPrefixReplayMatchesFreshDecode(t *testing.T) {
	fresh, _ := pagedTestServer(t, 8, 0)
	srv, genEngine := pagedTestServer(t, 8, 0)

	// A fixed-question mix: "hello"/"alpha"/"beta" decode their full budget
	// under this seed (so continuations exist to share); the rest hit EOS
	// immediately (so the born-done replay path is covered too).
	prompts := []string{"hello", "alpha", "beta", "faq question 0", "faq question 1 " + strings.Repeat("q", 5)}
	for _, p := range prompts {
		want := serveGen(t, fresh, p, 8)
		got := serveGen(t, srv, p, 8)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("prompt %q: %v != the other server's %v", p, got, want)
		}
	}

	// Second round: every prompt is now retired in the prefix cache, so the
	// whole round must replay — zero new encoder passes, hits counted.
	_, passesBefore, _ := genEngine.PrefillCounters()
	for _, p := range prompts {
		first := serveGen(t, srv, p, 8)
		again := serveGen(t, srv, p, 8)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("prompt %q: replay %v != first %v", p, again, first)
		}
	}
	_, passesAfter, _ := genEngine.PrefillCounters()
	if passesAfter != passesBefore {
		t.Fatalf("cached prompts ran %d encoder passes, want 0", passesAfter-passesBefore)
	}

	// Continuation: a longer budget on a cached prompt maps the retired
	// block tables (shared until copy-on-write) and extends them. The
	// extension must be bit-identical to a fresh decode at that budget.
	fresh2, _ := pagedTestServer(t, 8, 0)
	want := serveGen(t, fresh2, prompts[0], 24)
	got := serveGen(t, srv, prompts[0], 24)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("continuation %v != fresh decode %v", got, want)
	}
	if peak := genEngine.Generator.BlockPool().Stats().PeakShared; peak == 0 {
		t.Fatalf("continuation never shared a block (peak shared = 0)")
	}

	st := srv.statsSnapshot()
	if st.PrefixHits < int64(2*len(prompts)) {
		t.Fatalf("prefix hits %d, want >= %d", st.PrefixHits, 2*len(prompts))
	}
	if st.ReplayTokens == 0 {
		t.Fatalf("no tokens served from replay")
	}
	if st.KVBlocksTotal == 0 {
		t.Fatalf("stats missing kv_blocks_total")
	}
	if st.GenKVUsedBytes > st.GenKVReservedBytes {
		t.Fatalf("used %d > reserved %d", st.GenKVUsedBytes, st.GenKVReservedBytes)
	}
}

// TestPagedPreemptionLossless squeezes two long generations through a pool
// sized for about one and a half of them: the gate admits both (admission
// is optimistic), the pool runs dry mid-decode, and the dispatcher preempts
// one — which must still complete with exactly its solo stream once
// readmitted, nothing dropped, nothing repeated.
func TestPagedPreemptionLossless(t *testing.T) {
	// 2 layers → 4 blocks per decode step worst case; a 64-token budget
	// spans 2 blocks per layer per K/V = 8 blocks per session. 12 blocks
	// admit both but cannot carry both to completion.
	srv, genEngine := pagedTestServer(t, 2, 12)
	pa, pb := "alpha", "beta" // both decode the full 64 tokens under this seed
	soloA := serveGen(t, srv, pa, 64)
	soloB := serveGen(t, srv, pb, 64)
	genEngine.Generator.ClosePrefix() // replays would defeat the squeeze
	preempts := func() int64 { return srv.statsSnapshot().GenPreemptions }

	for burst := 0; burst < 20 && preempts() == 0; burst++ {
		genEngine.Generator.ClosePrefix()
		var wg sync.WaitGroup
		got := make([][]int, 2)
		for i, p := range []string{pa, pb} {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				got[i] = serveGen(t, srv, p, 64)
			}(i, p)
		}
		wg.Wait()
		if !reflect.DeepEqual(got[0], soloA) {
			t.Fatalf("burst %d: alpha %v != solo %v", burst, got[0], soloA)
		}
		if !reflect.DeepEqual(got[1], soloB) {
			t.Fatalf("burst %d: beta %v != solo %v", burst, got[1], soloB)
		}
	}
	if preempts() == 0 {
		t.Fatalf("pool squeeze never triggered a preemption")
	}
}

// TestPagedGaugesDrainToZero: whatever mix of fresh decodes, replays, and
// continuations ran, once the prefix cache is dropped the device KV gauges
// and the pool must account for exactly zero — the serving-level half of
// the eviction-accounting bugfix sweep.
func TestPagedGaugesDrainToZero(t *testing.T) {
	srv, genEngine := pagedTestServer(t, 4, 0)
	for i := 0; i < 6; i++ {
		serveGen(t, srv, fmt.Sprintf("drain probe %d", i%3), 8+i)
	}
	srv.Close()
	genEngine.Generator.ClosePrefix()
	if n := genEngine.Generator.BlockPool().Stats().UsedBlocks; n != 0 {
		t.Fatalf("%d blocks still held after drain", n)
	}
	mem := genEngine.MemoryStats()
	if mem.KVReservedBytes != 0 || mem.KVUsedBytes != 0 {
		t.Fatalf("KV gauges not zero after drain: reserved=%d used=%d",
			mem.KVReservedBytes, mem.KVUsedBytes)
	}
}

// TestKVBlocksUsedExcludesRetiredPrefix: at idle, retired generations still
// hold their KV blocks in the prefix cache, but /v1/stats' kv_blocks_used —
// the autoscaler's KV occupancy signal — counts only what running
// generations hold: retired KV is scavenged on demand, as admission assumes.
func TestKVBlocksUsedExcludesRetiredPrefix(t *testing.T) {
	srv, genEngine := pagedTestServer(t, 4, 0)
	for i := 0; i < 3; i++ {
		serveGen(t, srv, fmt.Sprintf("retired prompt %d", i), 8)
	}
	held := genEngine.Generator.PrefixStats().KVBlocks
	if held == 0 {
		t.Fatal("fixture: no retired generation holds KV blocks")
	}
	if st := srv.statsSnapshot(); st.KVBlocksUsed != 0 {
		t.Fatalf("idle server reports kv_blocks_used %d; the prefix cache holds %d scavengeable blocks and nothing runs", st.KVBlocksUsed, held)
	}
}
