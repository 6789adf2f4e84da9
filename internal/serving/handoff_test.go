package serving

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// handoffStack builds a role-tagged router over n gen-enabled replicas
// (identical weights — same seeds) and returns the replicas' generation
// engines so tests can audit the allocator gauges the hand-off moves KV
// between.
func handoffStack(t *testing.T, roles []ReplicaRole) (*Router, []*core.GenEngine) {
	t.Helper()
	encCfg := model.BertBase().Scaled(32, 4, 64, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	servers := make([]*Server, len(roles))
	engines := make([]*core.GenEngine, len(roles))
	for i := range servers {
		engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
		if err != nil {
			t.Fatal(err)
		}
		engines[i], err = core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		servers[i], err = NewServer(ServerConfig{
			Engine:           engine,
			Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
			MaxBatch:         8,
			GenEngine:        engines[i],
			GenMaxBatch:      4,
			GenDefaultMaxNew: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	router, err := NewRouter(RouterConfig{Policy: TokenCostRouting, Roles: roles}, servers...)
	if err != nil {
		t.Fatal(err)
	}
	return router, engines
}

// handoffGenServer builds one standalone gen-enabled server (same weights
// as handoffStack replicas) — the single-replica oracle, or a raw replica
// for driving the hand-off internals directly.
func handoffGenServer(t *testing.T) (*Server, *core.GenEngine) {
	t.Helper()
	encCfg := model.BertBase().Scaled(32, 4, 64, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        gen,
		GenMaxBatch:      4,
		GenDefaultMaxNew: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, gen
}

// postGenerate drives one aggregate /v1/generate request and returns the
// token stream plus the reported TTFT.
func postGenerate(t *testing.T, h http.Handler, text string, maxNew int) ([]int, float64, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"text": text, "max_new_tokens": maxNew})
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, 0, rec.Code
	}
	var out struct {
		Tokens []int   `json:"tokens"`
		TTFTMS float64 `json:"ttft_ms"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Tokens, out.TTFTMS, rec.Code
}

// streamGenerateTokens drives one streaming request and returns the token
// stream plus the terminal chunk's TTFT.
func streamGenerateTokens(t *testing.T, h http.Handler, text string, maxNew int) ([]int, float64) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"text": text, "max_new_tokens": maxNew, "stream": true})
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream generate: status %d: %s", rec.Code, rec.Body.String())
	}
	var toks []int
	var ttft float64
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var chunk struct {
			Token  int     `json:"token"`
			Done   bool    `json:"done"`
			TTFTMS float64 `json:"ttft_ms"`
			Error  string  `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatal(err)
		}
		if chunk.Error != "" {
			t.Fatalf("stream error: %s", chunk.Error)
		}
		if chunk.Done {
			ttft = chunk.TTFTMS
			break
		}
		toks = append(toks, chunk.Token)
	}
	return toks, ttft
}

// TestHandoffStreamsBitIdenticalToOracle is the end-to-end disaggregation
// property: on a [prefill, decode] fleet every generation crosses replicas
// (there is no mixed replica to keep it local), and each migrated stream —
// aggregate and NDJSON — must be bit-identical to a single-replica server
// with the same weights. Afterwards the migration counters must reconcile
// exactly (one migration per generation, in-bytes == out-bytes, roles
// reported per replica) and both replicas' KV gauges drain to zero. Run
// under -race in CI.
func TestHandoffStreamsBitIdenticalToOracle(t *testing.T) {
	router, engines := handoffStack(t, []ReplicaRole{RolePrefill, RoleDecode})
	defer router.Close()
	oracle, _ := handoffGenServer(t)
	defer oracle.Close()

	prompts := []string{"alpha beta", "the quick brown fox", "zq", "hand off this kv cache", "mid range prompt here", "one more"}
	const maxNew = 8

	type result struct {
		toks []int
		ttft float64
	}
	results := make([]result, len(prompts))
	var wg sync.WaitGroup
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			if i%2 == 0 {
				toks, ttft, code := postGenerate(t, router.Handler(), p, maxNew)
				if code != http.StatusOK {
					t.Errorf("generate %d: status %d", i, code)
					return
				}
				results[i] = result{toks, ttft}
				return
			}
			toks, ttft := streamGenerateTokens(t, router.Handler(), p, maxNew)
			results[i] = result{toks, ttft}
		}(i, p)
	}
	wg.Wait()

	for i, p := range prompts {
		want, _, code := postGenerate(t, oracle.Handler(), p, maxNew)
		if code != http.StatusOK {
			t.Fatalf("oracle %d: status %d", i, code)
		}
		if fmt.Sprint(results[i].toks) != fmt.Sprint(want) {
			t.Fatalf("prompt %d: migrated stream %v != oracle %v", i, results[i].toks, want)
		}
		if results[i].ttft <= 0 {
			t.Errorf("prompt %d: no ttft reported", i)
		}
	}

	stats := router.Stats()
	if stats.KVMigrations != int64(len(prompts)) {
		t.Fatalf("kv_migrations = %d, want %d (every generation must hand off)", stats.KVMigrations, len(prompts))
	}
	if stats.KVMigratedBytes <= 0 {
		t.Fatalf("kv_migrated_bytes = %d, want > 0", stats.KVMigratedBytes)
	}
	if stats.PrefillQueueDepth != 0 {
		t.Fatalf("prefill_queue_depth = %d after drain, want 0", stats.PrefillQueueDepth)
	}
	var in, out int64
	roles := make([]string, len(stats.PerReplica))
	for i, r := range stats.PerReplica {
		in += r.KVMigratedInBytes
		out += r.KVMigratedOutBytes
		roles[i] = r.Role
	}
	if in != out || in != stats.KVMigratedBytes {
		t.Fatalf("migration bytes do not reconcile: in=%d out=%d aggregate=%d", in, out, stats.KVMigratedBytes)
	}
	if got := strings.Join(roles, ","); got != "prefill,decode" {
		t.Fatalf("per-replica roles = %q, want prefill,decode", got)
	}
	for i, g := range engines {
		g.Generator.ClosePrefix() // retired generations are not leaks
		snap := g.MemoryStats()
		if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
			t.Fatalf("replica %d KV gauges not drained: reserved=%d used=%d", i, snap.KVReservedBytes, snap.KVUsedBytes)
		}
	}
}

// TestHandoffShortPromptStaysOnMixed: with a mixed replica available and a
// non-zero migration price, a short prompt must NOT pay the hand-off — the
// cost plan keeps it local, so the migration counters stay zero.
func TestHandoffShortPromptStaysOnMixed(t *testing.T) {
	router, _ := handoffStack(t, []ReplicaRole{RoleMixed, RoleMixed})
	defer router.Close()
	toks, _, code := postGenerate(t, router.Handler(), "hi", 4)
	if code != http.StatusOK || len(toks) == 0 {
		t.Fatalf("generate failed: status %d tokens %v", code, toks)
	}
	if stats := router.Stats(); stats.KVMigrations != 0 {
		t.Fatalf("kv_migrations = %d on an all-mixed fleet, want 0", stats.KVMigrations)
	}
}

// TestHandoffMidMigrationWindow drives the hand-off state machine's exposed
// window directly: after runPrefill returns, the KV snapshot lives only on
// the heap — the source session is already closed, so the prefill replica
// holds ZERO device bytes for it (a crash of the decode side cannot leak
// the source). If the decode replica shuts down before the import, the
// hand-off must fail with 503, fire no migration callback, leave the
// decode gauges at exactly zero — and the snapshot must stay importable,
// so a router retry elsewhere replays it losslessly.
func TestHandoffMidMigrationWindow(t *testing.T) {
	prefill, prefillGen := handoffGenServer(t)
	defer prefill.Close()
	decode, decodeGen := handoffGenServer(t)

	req := generateRequest{Text: "export me mid flight", MaxNewTokens: 6}
	start := time.Now()
	snap, err := prefill.runPrefill(context.Background(), req, start)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Bytes() <= 0 {
		t.Fatalf("snapshot prices %d bytes", snap.Bytes())
	}
	// Copy-then-close: the source side is already clean mid-migration.
	if s := prefillGen.MemoryStats(); s.KVReservedBytes != 0 || s.KVUsedBytes != 0 {
		t.Fatalf("prefill KV gauges not released at export: reserved=%d used=%d", s.KVReservedBytes, s.KVUsedBytes)
	}

	// Decode side drains before the import lands.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := decode.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/generate", nil)
	decode.serveHandoff(rec, httpReq, req, snap, start, func() {
		t.Error("onImported fired on a drained server")
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("hand-off to a drained replica: status %d, want 503", rec.Code)
	}
	if s := decodeGen.MemoryStats(); s.KVReservedBytes != 0 || s.KVUsedBytes != 0 {
		t.Fatalf("decode KV gauges leaked by refused hand-off: reserved=%d used=%d", s.KVReservedBytes, s.KVUsedBytes)
	}

	// The window lost nothing: the same snapshot imports into a healthy
	// replica and finishes with the oracle's exact stream.
	retry, _ := handoffGenServer(t)
	defer retry.Close()
	imported := 0
	rec = httptest.NewRecorder()
	retry.serveHandoff(rec, httpReq, req, snap, start, func() { imported++ })
	if rec.Code != http.StatusOK {
		t.Fatalf("retry hand-off: status %d: %s", rec.Code, rec.Body.String())
	}
	if imported != 1 {
		t.Fatalf("retry fired onImported %d times, want 1", imported)
	}
	var out struct {
		Tokens []int `json:"tokens"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	oracle, _ := handoffGenServer(t)
	defer oracle.Close()
	want, _, code := postGenerate(t, oracle.Handler(), req.Text, req.MaxNewTokens)
	if code != http.StatusOK {
		t.Fatalf("oracle: status %d", code)
	}
	if fmt.Sprint(out.Tokens) != fmt.Sprint(want) {
		t.Fatalf("retried hand-off stream %v != oracle %v", out.Tokens, want)
	}
}

// TestRouterShutdownDuringHandoff is the satellite's Shutdown(ctx) check at
// the router level: shut the fleet down while generations are mid-flight.
// Every request must resolve (200 if its hand-off completed during the
// drain, 503 if it hit a drained side), and afterwards the fleet holds
// ZERO KV on every replica and the migration counters still reconcile —
// the mid-migration window either completed or released both sides. Run
// under -race in CI.
func TestRouterShutdownDuringHandoff(t *testing.T) {
	router, engines := handoffStack(t, []ReplicaRole{RolePrefill, RoleDecode})

	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]interface{}{
				"text":           fmt.Sprintf("prompt number %d with some length", i),
				"max_new_tokens": 16,
			})
			req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			router.Handler().ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	// Let some prefills land, then pull the plug mid-flight.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("request %d resolved with %d, want 200 or 503", i, code)
		}
	}
	stats := router.Stats()
	var in, out int64
	for _, r := range stats.PerReplica {
		in += r.KVMigratedInBytes
		out += r.KVMigratedOutBytes
	}
	if in != out {
		t.Fatalf("post-shutdown migration bytes do not reconcile: in=%d out=%d", in, out)
	}
	if stats.PrefillQueueDepth != 0 {
		t.Fatalf("prefill_queue_depth = %d after shutdown, want 0", stats.PrefillQueueDepth)
	}
	for i, g := range engines {
		g.Generator.ClosePrefix() // retired generations are not leaks
		snap := g.MemoryStats()
		if snap.KVReservedBytes != 0 || snap.KVUsedBytes != 0 {
			t.Fatalf("replica %d KV gauges not drained after shutdown: reserved=%d used=%d",
				i, snap.KVReservedBytes, snap.KVUsedBytes)
		}
	}
}

// TestParseReplicaRoles covers the wire-name parser and its programmatic
// error enumeration (the same single-source-of-truth pattern
// ParseBalancePolicy uses).
func TestParseReplicaRoles(t *testing.T) {
	roles, err := ParseReplicaRoles(" prefill, decode , mixed ")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(roles) != fmt.Sprint([]ReplicaRole{RolePrefill, RoleDecode, RoleMixed}) {
		t.Fatalf("parsed %v", roles)
	}
	if roles, err := ParseReplicaRoles(""); err != nil || roles != nil {
		t.Fatalf("empty spec: %v, %v", roles, err)
	}
	_, err = ParseReplicaRole("bogus")
	if err == nil {
		t.Fatal("bogus role parsed")
	}
	for _, want := range []string{"mixed", "prefill", "decode", "bogus"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not enumerate %q", err, want)
		}
	}
	// The balance-policy parser enumerates the same way (satellite check).
	_, perr := ParseBalancePolicy("nope")
	if perr == nil {
		t.Fatal("bogus policy parsed")
	}
	for _, want := range []string{"round-robin", "least-queue", "token-cost", "nope"} {
		if !strings.Contains(perr.Error(), want) {
			t.Fatalf("policy error %q does not enumerate %q", perr, want)
		}
	}
}

// TestNewRouterRoleValidation: role lists must match the replica count and
// leave the fleet able to serve a generation end to end.
func TestNewRouterRoleValidation(t *testing.T) {
	s1, _ := handoffGenServer(t)
	s2, _ := handoffGenServer(t)
	defer s1.Close()
	defer s2.Close()
	if _, err := NewRouter(RouterConfig{Roles: []ReplicaRole{RolePrefill}}, s1, s2); err == nil {
		t.Fatal("role/replica count mismatch accepted")
	}
	if _, err := NewRouter(RouterConfig{Roles: []ReplicaRole{RolePrefill, RolePrefill}}, s1, s2); err == nil {
		t.Fatal("prefill-only fleet accepted (no replica can decode)")
	}
}

// TestHandoffImportScavengesOnlyWhatItNeeds: when a KV hand-off import finds
// an fp16 replica's pool nearly full, it scavenges retired prefix KV sized to
// the snapshot at THIS replica's rows per block — 64 binary16 rows, not the
// 32 fp32 rows of KVChunkTokens — so retired entries the import does not need
// keep their KV for later continuations.
func TestHandoffImportScavengesOnlyWhatItNeeds(t *testing.T) {
	encCfg := model.BertBase().Scaled(32, 4, 64, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	const retired = 5
	stepBlocks := 2 * decCfg.Layers // one K and one V block per layer
	engine := func(blocks int) *core.GenEngine {
		t.Helper()
		// Seed 7 decodes to the budget instead of stopping at EOS.
		e, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 7, FP16: true, PagedKVBlocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	start := func(e *core.GenEngine, id int64, maxNew int) *model.GenSession {
		t.Helper()
		sess, err := e.StartSessions([]int64{id}, [][]int{{3 + int(id), 9, 27}}, []int{maxNew})
		if err != nil {
			t.Fatal(err)
		}
		return sess[0]
	}

	// The snapshot: 40 committed rows — one fp16 block per table, two at the
	// fp32 block size.
	src := engine(0)
	s := start(src, 100, 48)
	for s.ContextLen() < 40 {
		if _, err := src.Step([]*model.GenSession{s}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.DetachSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if snap.KVLen != 40 {
		t.Fatalf("fixture exported %d rows, want 40", snap.KVLen)
	}

	// The destination: retired entries holding one block per table each,
	// and two free blocks — short of the import's one block per table.
	dst := engine(retired*stepBlocks + 2)
	defer dst.Close()
	for i := int64(0); i < retired; i++ {
		e := start(dst, i, 2)
		for !e.Done() {
			if _, err := dst.Step([]*model.GenSession{e}); err != nil {
				t.Fatal(err)
			}
		}
		dst.Retire(e)
	}
	if st := dst.Generator.PrefixStats(); st.KVEntries != retired || st.KVBlocks != retired*stepBlocks {
		t.Fatalf("fixture: %d entries hold %d blocks, want %d holding %d", st.KVEntries, st.KVBlocks, retired, retired*stepBlocks)
	}

	d := newGenDispatcher(nil, dst, 4, 8)
	lg, err := d.importSnap(snap.ID, &Job{snap: snap, ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.sess.Close()
	if kept := dst.Generator.PrefixStats().KVEntries; kept != retired-1 {
		t.Fatalf("%d of %d retired entries kept their KV through the import, want %d: the scavenger dropped more than the import needed",
			kept, retired, retired-1)
	}
}
