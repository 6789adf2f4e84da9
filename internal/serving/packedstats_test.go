package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tensor"
)

func statsServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	engine, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2),
		core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * 10 * time.Microsecond
	})
	srv, err := NewServer(ServerConfig{
		Engine:    engine,
		Scheduler: &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:  8,
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

// mixedBatch pushes one deterministic two-request mixed-length batch
// through the classify dispatcher's batch runner (5 and 17 tokens; a
// padded execution would have run 2·17 rows, 12 of them padding).
func mixedBatch(t *testing.T, srv *Server) {
	t.Helper()
	mk := func(id int64, text string) *Job {
		j := newJob(id, JobClassify, Tokenize(text, srv.engine.Cfg.Vocab), context.Background(), time.Time{})
		j.result = make(chan jobResult, 1)
		return j
	}
	short := mk(0, "hello")
	long := mk(1, "a much longer req")
	b := sched.Batch{
		Requests: []*sched.Request{
			{ID: 0, Length: len(short.Tokens), Payload: short},
			{ID: 1, Length: len(long.Tokens), Payload: long},
		},
		PaddedLen:   len(long.Tokens),
		TotalTokens: len(short.Tokens) + len(long.Tokens),
	}
	srv.classify.runBatch(b)
	for _, j := range []*Job{short, long} {
		if r := <-j.result; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

func fetchStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStatsTokensProcessed: one mixed-length batch counts its 22 real
// tokens — the rows the packed engine computes, with no padding on top —
// as one batch run.
func TestStatsTokensProcessed(t *testing.T) {
	srv, ts := statsServer(t)
	mixedBatch(t, srv)
	got := fetchStats(t, ts.URL)
	if got.TokensProcessed != 22 || got.BatchesRun != 1 {
		t.Fatalf("tokens_processed=%d batches_run=%d, want 22/1", got.TokensProcessed, got.BatchesRun)
	}
}

// TestPackedServerEndToEnd: the live HTTP path must classify identically
// to the padded oracle — Embedding.Encode → Encoder.Forward, then the
// classifier head over the [CLS] row, on the same engine.
func TestPackedServerEndToEnd(t *testing.T) {
	srv, ts := statsServer(t)
	eng := srv.engine
	for _, text := range []string{"x", "zero padding", "a considerably longer request body"} {
		hidden, seqLens, err := eng.Embedding.Encode([][]int{Tokenize(text, eng.Cfg.Vocab)})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := eng.Encoder.Forward(hidden, seqLens)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Classifier.PredictPacked(tensor.PackPadded(out, seqLens))
		if err != nil {
			t.Fatal(err)
		}
		if got := classify(t, ts.URL, text); got.Class != want[0] {
			t.Fatalf("text %q: served class %d != padded oracle %d", text, got.Class, want[0])
		}
	}
}
