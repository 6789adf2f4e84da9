package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestRetryAfterHintMonotone pins the backpressure hint's shape: deeper
// queues and slower drains both push it up, it never drops below the old
// constant 1, and it saturates at the ceiling instead of telling a client
// to come back next week.
func TestRetryAfterHintMonotone(t *testing.T) {
	rate := 4.0
	prev := 0
	for _, depth := range []int{0, 1, 8, 32, 128, 512} {
		hint := retryAfterHint(depth, rate, true)
		if hint < prev {
			t.Fatalf("hint shrank with depth: depth=%d hint=%d prev=%d", depth, hint, prev)
		}
		if hint < minRetryAfter || hint > maxRetryAfter {
			t.Fatalf("hint %d out of [%d, %d]", hint, minRetryAfter, maxRetryAfter)
		}
		prev = hint
	}
	// Slower drain → larger hint at the same depth.
	if retryAfterHint(40, 2, true) <= retryAfterHint(40, 20, true) {
		t.Fatal("slower drain did not raise the hint")
	}
	// A cold meter falls back to the assumed rate but stays monotone in
	// depth.
	if retryAfterHint(80, 0, false) <= retryAfterHint(2, 0, false) {
		t.Fatal("cold-meter hint not monotone in depth")
	}
	// A MEASURED zero rate is a wedged server, not an unknown one: the
	// hint must be the ceiling, not the optimistic cold fallback.
	if got := retryAfterHint(4, 0, true); got != maxRetryAfter {
		t.Fatalf("stalled server hinted %ds, want ceiling %d", got, maxRetryAfter)
	}
	// Ceiling.
	if got := retryAfterHint(1_000_000, 0.001, true); got != maxRetryAfter {
		t.Fatalf("hint %d, want ceiling %d", got, maxRetryAfter)
	}
}

// TestDrainMeterMeasuresRecentRate: the meter reports the completion rate
// over its sliding window, not a lifetime average — a stall shows up as a
// collapsed rate one window later.
func TestDrainMeterMeasuresRecentRate(t *testing.T) {
	var m drainMeter
	t0 := time.Unix(1000, 0)
	if r, measured := m.observe(t0, 0); r != 0 || measured {
		t.Fatalf("cold meter: rate %v measured %v", r, measured)
	}
	// 100 completions over 1s → 100/s.
	r, measured := m.observe(t0.Add(time.Second), 100)
	if r < 99 || r > 101 || !measured {
		t.Fatalf("rate %v measured %v, want ≈100, true", r, measured)
	}
	// Mid-window observations return the last measured rate.
	if r, _ := m.observe(t0.Add(time.Second+drainWindow/2), 100); r != 100 {
		t.Fatalf("mid-window rate %v, want held 100", r)
	}
	// A stalled second window collapses the rate — but stays measured,
	// which is what separates "wedged" from "cold" for the hint.
	if r, measured := m.observe(t0.Add(3*time.Second), 100); r != 0 || !measured {
		t.Fatalf("stalled: rate %v measured %v, want 0, true", r, measured)
	}
	// A long quiet gap is NOT a stall — observe only runs on the 429 path,
	// so a stale interval means nobody asked. The meter resets to unknown
	// instead of reporting an hour of idleness as a near-zero drain rate.
	if r, measured := m.observe(t0.Add(time.Hour), 500); r != 0 || measured {
		t.Fatalf("after idle gap: rate %v measured %v, want cold reset", r, measured)
	}
	if r, measured := m.observe(t0.Add(time.Hour+time.Second), 700); r < 199 || r > 201 || !measured {
		t.Fatalf("fresh window after reset: rate %v measured %v, want ≈200, true", r, measured)
	}
}

// retryAfterServer builds a server whose classify dispatcher lingers in a
// long lazy window, so submitted jobs provably sit in the queue while the
// test measures the 429 hint.
func retryAfterServer(t *testing.T, queueDepth int) (*Server, *httptest.Server) {
	t.Helper()
	engine, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	srv, err := NewServer(ServerConfig{
		Engine:      engine,
		Scheduler:   &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:    64,
		QueueDepth:  queueDepth,
		BatchWindow: 30 * time.Second,
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

// fillQueue fills the server's queue to exactly the given depth by
// submitting jobs directly (the test lives in the package): one sacrifice
// job parks the dispatcher in its long batch window, then depth more
// provably accumulate — Submit is synchronous, so no polling races.
func fillQueue(t *testing.T, srv *Server, depth int) {
	t.Helper()
	submit := func() {
		if _, err := srv.submit(JobClassify, []int{5, 6, 7}, 0, 0, time.Time{}, context.Background()); err != nil {
			t.Fatalf("fill submit: %v", err)
		}
	}
	submit()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queue.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher never took the sacrifice job: depth %d", srv.queue.Depth())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < depth; i++ {
		submit()
	}
	if d := srv.queue.Depth(); d != depth {
		t.Fatalf("queue depth %d after filling, want %d", d, depth)
	}
}

// TestRetryAfterGrowsWithQueueDepth is the satellite regression: the 429
// hint is derived from load, so a server refusing with 40 queued jobs must
// hint a longer back-off than one refusing with a single queued job.
func TestRetryAfterGrowsWithQueueDepth(t *testing.T) {
	hintAt := func(depth int) int {
		srv, ts := retryAfterServer(t, depth)
		fillQueue(t, srv, depth)

		body, _ := json.Marshal(map[string]string{"text": "overflow"})
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		hint, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || hint < 1 {
			t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
		}
		return hint
	}
	shallow := hintAt(1)
	deep := hintAt(40)
	if deep <= shallow {
		t.Fatalf("deeper queue must hint a longer back-off: depth 40 → %ds, depth 1 → %ds", deep, shallow)
	}
}

// TestQueueOrderedAtEnqueue is the regression for the PR-5 ordering fix:
// priority order is an invariant the queue maintains at Submit, so it
// holds across interleaved takes — a high-priority job arriving while a
// prior take's work is mid-flight runs ahead of lower-priority work
// admitted after it, and ahead of lower-priority work that was already
// waiting.
func TestQueueOrderedAtEnqueue(t *testing.T) {
	q := NewQueue(16)
	mk := func(id int64, prio int) *Job {
		j := newJob(id, JobClassify, []int{5}, context.Background(), time.Time{})
		j.Priority = prio
		return j
	}
	ids := func(jobs []*Job) []int64 {
		out := make([]int64, len(jobs))
		for i, j := range jobs {
			out[i] = j.ID
		}
		return out
	}

	// Take 1 grabs the backlog; think of it as mid-flight from here on.
	mustSubmit := func(j *Job) {
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	mustSubmit(mk(1, 0))
	if jobs, _ := q.take(JobClassify, false); len(jobs) != 1 || jobs[0].ID != 1 {
		t.Fatalf("take 1: %v", ids(jobs))
	}

	// While it runs: low-priority work arrives, then a high-priority job,
	// then more low-priority work.
	mustSubmit(mk(2, 0))
	mustSubmit(mk(3, 5))
	mustSubmit(mk(4, 0))
	mustSubmit(mk(5, 5))

	// The queue itself is ordered — not merely the output of one take.
	if got := ids(q.jobs); got[0] != 3 || got[1] != 5 || got[2] != 2 || got[3] != 4 {
		t.Fatalf("queue not ordered at enqueue: %v", got)
	}
	jobs, _ := q.take(JobClassify, false)
	if got := ids(jobs); got[0] != 3 || got[1] != 5 || got[2] != 2 || got[3] != 4 {
		t.Fatalf("take 2 order: %v", got)
	}
}

// TestCompletionsCountBothKinds: the drain meter's numerator must count
// finished generation streams, not just classify results — a generate-only
// workload still produces a live drain rate for the Retry-After hint.
func TestCompletionsCountBothKinds(t *testing.T) {
	srv, ts := genTestServer(t, 4)
	body, _ := json.Marshal(map[string]interface{}{"text": "hi", "max_new_tokens": 3})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}
	if got := srv.completions.Load(); got != 1 {
		t.Fatalf("completions after one finished generation: %d, want 1", got)
	}
	body, _ = json.Marshal(map[string]string{"text": "classify me"})
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := srv.completions.Load(); got != 2 {
		t.Fatalf("completions after classify: %d, want 2", got)
	}
}
