package serving

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestTokenizeTinyVocab: vocabularies too small to hold any non-special
// token must not divide by zero — every byte folds onto the first
// non-special ID, and larger vocabularies stay in range.
func TestTokenizeTinyVocab(t *testing.T) {
	for _, vocab := range []int{0, 1, 2, 3, 4, 5, 300} {
		toks := Tokenize("abc xyz!", vocab)
		if len(toks) != 8 {
			t.Fatalf("vocab %d: %d tokens for 8 bytes", vocab, len(toks))
		}
		for _, tok := range toks {
			if tok < 3 {
				t.Fatalf("vocab %d: special token %d emitted", vocab, tok)
			}
			if vocab > 3 && tok >= vocab {
				t.Fatalf("vocab %d: token %d out of range", vocab, tok)
			}
			if vocab <= 4 && tok != 3 {
				t.Fatalf("vocab %d: token %d, want everything folded to 3", vocab, tok)
			}
		}
	}
}

// TestQueueBoundsAndPriority pins the admission queue contract: bounded
// Submit, priority-ordered take (FCFS within a priority), drain leaving
// queued jobs to be served, close stranding them for the caller.
func TestQueueBoundsAndPriority(t *testing.T) {
	q := NewQueue(3)
	mk := func(id int64, prio int) *Job {
		j := newJob(id, JobClassify, []int{5}, context.Background(), time.Time{})
		j.Priority = prio
		return j
	}
	for i, prio := range []int{0, 7, 7} {
		if err := q.Submit(mk(int64(i), prio)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Submit(mk(9, 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit into depth-3 queue: %v, want ErrQueueFull", err)
	}
	if d := q.Depth(); d != 3 {
		t.Fatalf("depth %d", d)
	}
	jobs, ok := q.take(JobClassify, false)
	if !ok || len(jobs) != 3 {
		t.Fatalf("take: %d jobs, ok=%v", len(jobs), ok)
	}
	// Priority 7 first (IDs 1 then 2, FCFS within the class), then 0.
	if jobs[0].ID != 1 || jobs[1].ID != 2 || jobs[2].ID != 0 {
		t.Fatalf("priority order: %d %d %d", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}

	// Kind filtering: a generate job is invisible to the classify worker.
	if err := q.Submit(mk(10, 0)); err != nil {
		t.Fatal(err)
	}
	gen := newJob(11, JobGenerate, []int{5}, context.Background(), time.Time{})
	if err := q.Submit(gen); err != nil {
		t.Fatal(err)
	}
	jobs, ok = q.take(JobGenerate, false)
	if !ok || len(jobs) != 1 || jobs[0].ID != 11 {
		t.Fatalf("generate take: %+v ok=%v", jobs, ok)
	}

	// drain: no new submissions, queued work still handed out, then done.
	q.drain()
	if err := q.Submit(mk(12, 0)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after drain: %v", err)
	}
	jobs, ok = q.take(JobClassify, true)
	if !ok || len(jobs) != 1 || jobs[0].ID != 10 {
		t.Fatalf("drain take: %+v ok=%v", jobs, ok)
	}
	if _, ok := q.take(JobClassify, true); ok {
		t.Fatal("finished empty queue must report ok=false")
	}

	q2 := NewQueue(2)
	if err := q2.Submit(mk(1, 0)); err != nil {
		t.Fatal(err)
	}
	stranded := q2.close()
	if len(stranded) != 1 || stranded[0].ID != 1 {
		t.Fatalf("close stranded: %+v", stranded)
	}
}

// backpressureServer: tiny engine, queue depth 1, a long lazy window so
// the queue is provably full while the worker lingers.
func backpressureServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	engine, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	srv, err := NewServer(ServerConfig{
		Engine:      engine,
		Scheduler:   &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:    8,
		QueueDepth:  1,
		BatchWindow: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestBackpressure429 floods a depth-1 admission queue: overflow must be
// refused with 429 + Retry-After and a structured body, everything
// admitted must still succeed, and jobs_rejected must account for every
// refusal.
func TestBackpressure429(t *testing.T) {
	srv, ts := backpressureServer(t)
	const n = 12
	var (
		mu       sync.Mutex
		ok429    int
		ok200    int
		statuses []int
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(classifyRequest{Text: fmt.Sprintf("burst %d", i)})
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			statuses = append(statuses, resp.StatusCode)
			switch resp.StatusCode {
			case http.StatusOK:
				ok200++
			case http.StatusTooManyRequests:
				ok429++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				var e errorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != http.StatusTooManyRequests {
					t.Errorf("429 body not structured: %+v err=%v", e, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if ok429 == 0 {
		t.Fatalf("no 429 observed under a depth-1 queue: statuses %v", statuses)
	}
	if ok200 == 0 {
		t.Fatalf("nothing served: statuses %v", statuses)
	}
	if ok200+ok429 != n {
		t.Fatalf("unexpected statuses: %v", statuses)
	}
	if got := srv.jobsRejected.Load(); got != int64(ok429) {
		t.Fatalf("jobs_rejected %d, observed %d refusals", got, ok429)
	}
}

// TestDeadlineExpiredDroppedBeforeScheduling: a classify job whose
// deadline passes inside the lazy window must be dropped before any batch
// is formed — 504 to the client, jobs_expired counted, nothing served.
func TestDeadlineExpiredDroppedBeforeScheduling(t *testing.T) {
	srv, ts := backpressureServer(t)
	body, _ := json.Marshal(classifyRequest{Text: "too slow", DeadlineMS: 1})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired job: status %d, want 504", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != http.StatusGatewayTimeout {
		t.Fatalf("504 body not structured: %+v err=%v", e, err)
	}
	if got := srv.jobsExpired.Load(); got != 1 {
		t.Fatalf("jobs_expired %d, want 1", got)
	}
	if got := srv.served.Load(); got != 0 {
		t.Fatalf("expired job was served (%d)", got)
	}
	stats := fetchStats(t, ts.URL)
	if stats.JobsExpired != 1 {
		t.Fatalf("stats jobs_expired %d", stats.JobsExpired)
	}
}

// TestGenerateDeadlineEvictsMidDecode: a generation with a deadline far
// shorter than its token budget must stop within one iteration of the
// deadline — 504, KV reservation released, jobs_expired counted.
func TestGenerateDeadlineEvictsMidDecode(t *testing.T) {
	srv, ts := genTestServer(t, 4)
	body, _ := json.Marshal(generateRequest{Text: "x", MaxNewTokens: 500, DeadlineMS: 30})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline generation: status %d, want 504", resp.StatusCode)
	}
	waitReservationsReleased(t, srv)
	if got := srv.jobsExpired.Load(); got < 1 {
		t.Fatalf("jobs_expired %d, want ≥ 1", got)
	}
}

// waitReservationsReleased polls until the continuous scheduler holds no
// queued or running requests and no reserved tokens.
func waitReservationsReleased(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.gen.sched.Idle() || srv.gen.sched.ReservedTokens() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reservation not released: idle %v, reserved %d",
				srv.gen.sched.Idle(), srv.gen.sched.ReservedTokens())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectReleasesKVReservation is the acceptance check for
// context-aware eviction: cancel an in-flight streaming generation and the
// decode loop must evict it within an iteration, gen_reserved_tokens must
// drain to 0, and the drop must be attributed to jobs_cancelled.
func TestDisconnectReleasesKVReservation(t *testing.T) {
	srv, ts := genTestServer(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(generateRequest{Text: "x", MaxNewTokens: 500, Stream: true})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one token so the session is definitely live — and its KV
	// reservation definitely charged — then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if srv.gen.sched.ReservedTokens() == 0 {
		t.Fatal("live generation holds no reservation")
	}
	cancel()
	resp.Body.Close()
	waitReservationsReleased(t, srv)
	stats := fetchStats(t, ts.URL)
	if stats.GenReservedTokens != 0 {
		t.Fatalf("gen_reserved_tokens %d after disconnect, want 0", stats.GenReservedTokens)
	}
	if stats.JobsCancelled < 1 {
		t.Fatalf("jobs_cancelled %d, want ≥ 1", stats.JobsCancelled)
	}
	// The freed slot serves new work normally.
	if got := generate(t, ts.URL, "after the disconnect", 4).Tokens; len(got) == 0 {
		t.Fatal("server wedged after disconnect")
	}
}

// TestShutdownDrainsInFlight: Shutdown must stop admission immediately but
// serve everything already admitted — queued classify jobs and a running
// generation — before returning nil.
func TestShutdownDrainsInFlight(t *testing.T) {
	encCfg := model.BertBase().Scaled(128, 4, 512, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(128, 4, 512, 2)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		BatchWindow:      100 * time.Millisecond,
		GenEngine:        genEngine,
		GenMaxBatch:      4,
		GenDefaultMaxNew: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A streaming generation that is provably in flight (first token read).
	genBody, _ := json.Marshal(generateRequest{Text: "x", MaxNewTokens: 32, Stream: true})
	genResp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(genBody))
	if err != nil {
		t.Fatal(err)
	}
	defer genResp.Body.Close()
	sc := bufio.NewScanner(genResp.Body)
	if !sc.Scan() {
		t.Fatal("no first token before shutdown")
	}

	// A handful of classify jobs admitted straight into the queue — they
	// are provably in the admission queue (or the lazy window) when
	// Shutdown begins, so the drain guarantee applies to every one.
	const n = 5
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := srv.submit(JobClassify, Tokenize(fmt.Sprintf("queued during drain %d", i), srv.engine.Cfg.Vocab),
			0, 0, time.Time{}, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Everything admitted before the drain completed normally.
	for i, j := range jobs {
		res := <-j.result
		if res.err != nil {
			t.Fatalf("admitted job %d failed during graceful drain: %v", i, res.err)
		}
	}
	var last streamChunk
	tokens := 0
	if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	for !last.Done {
		if !sc.Scan() {
			t.Fatal("stream ended without terminal chunk during drain")
		}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		if !last.Done {
			tokens++
		}
	}
	if last.Error != "" {
		t.Fatalf("drained generation failed: %q after %d tokens", last.Error, tokens)
	}

	// Admission is closed: new work is refused with 503.
	body, _ := json.Marshal(classifyRequest{Text: "too late"})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown classify: %d, want 503", resp.StatusCode)
	}
	// Idempotent second shutdown and a safe Close afterwards.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	srv.Close()
}

// TestShutdownAbortsOnExpiredContext: a Shutdown bounded by an
// already-expired context must abort queued work (clients get 5xx, not a
// hang) and still join the workers before returning ctx.Err().
func TestShutdownAbortsOnExpiredContext(t *testing.T) {
	engine, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	srv, err := NewServer(ServerConfig{
		Engine:      engine,
		Scheduler:   &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:    8,
		BatchWindow: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 3
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(classifyRequest{Text: fmt.Sprintf("abort victim %d", i)})
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	time.Sleep(20 * time.Millisecond)

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := srv.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted shutdown returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("aborted shutdown took %v — workers not joined promptly", elapsed)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code == http.StatusOK {
			continue // raced ahead of the abort; fine
		}
		if code != http.StatusServiceUnavailable && code != http.StatusInternalServerError {
			t.Fatalf("aborted job got %d", code)
		}
	}
}

// TestMethodHandlingAndStructuredErrors: every endpoint must reject wrong
// methods with 405 + Allow and answer every error as structured JSON.
func TestMethodHandlingAndStructuredErrors(t *testing.T) {
	_, ts := genTestServer(t, 4)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/classify", http.MethodPost},
		{http.MethodDelete, "/v1/classify", http.MethodPost},
		{http.MethodGet, "/v1/generate", http.MethodPost},
		{http.MethodPut, "/v1/generate", http.MethodPost},
		{http.MethodPost, "/v1/stats", http.MethodGet},
		{http.MethodDelete, "/v1/stats", http.MethodGet},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != http.StatusMethodNotAllowed || e.Error == "" {
			t.Fatalf("%s %s: body not structured JSON: %+v err=%v", c.method, c.path, e, err)
		}
		resp.Body.Close()
	}

	// Bad bodies are structured 400s on both POST endpoints.
	for _, path := range []string{"/v1/classify", "/v1/generate"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != http.StatusBadRequest {
			t.Fatalf("%s: 400 body not structured: %+v err=%v", path, e, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestStatsExposesLifecycleCounters: the new counters must be present (and
// zero) on a fresh server.
func TestStatsExposesLifecycleCounters(t *testing.T) {
	_, ts := testServer(t, 0)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queue_depth", "jobs_rejected", "jobs_expired", "jobs_cancelled"} {
		v, ok := raw[key]
		if !ok {
			t.Fatalf("stats missing %q: %v", key, raw)
		}
		if v.(float64) != 0 {
			t.Fatalf("fresh server reports %s = %v", key, v)
		}
	}
}
