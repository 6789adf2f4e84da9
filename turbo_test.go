package turbo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	turbo "repro"
	"repro/internal/core"
)

func TestFacadeEngine(t *testing.T) {
	cfg := turbo.BertBase().Scaled(32, 4, 64, 2)
	rt, err := turbo.NewRuntime(cfg, turbo.WithSeed(1), turbo.WithClasses(2))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := rt.Engine.Classify(context.Background(), [][]int{{5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 {
		t.Fatalf("classes: %v", classes)
	}
}

// TestFacadeRuntimeOptions pins the functional-options front door: the
// options must resolve to the core.Options they name — the runtime built by
// NewRuntime matches an engine built from that struct result for result —
// and a cancelled context must stop the pipeline.
func TestFacadeRuntimeOptions(t *testing.T) {
	cfg := turbo.BertBase().Scaled(32, 4, 64, 2)
	rt, err := turbo.NewRuntime(cfg,
		turbo.WithSeed(1),
		turbo.WithClasses(2),
		turbo.WithPacked(),
	)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]int{{5, 6, 7}, {8, 9}}
	got, err := rt.Classify(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewEngine(cfg, core.Options{Seed: 1, Classes: 2, Packed: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Classify(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("options-built runtime diverges from the core.Options engine: %v vs %v", got, want)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Classify(cancelled, batch); err == nil {
		t.Fatal("cancelled context must stop Classify")
	}
}

// TestFacadeServe drives one classify and one generation request through a
// server built entirely by the Serve front door, then shuts it down
// gracefully.
func TestFacadeServe(t *testing.T) {
	encCfg := turbo.BertBase().Scaled(32, 4, 64, 2)
	decCfg := turbo.Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	srv, err := turbo.Serve(encCfg,
		turbo.WithSeed(3),
		turbo.WithClasses(3),
		turbo.WithGeneration(decCfg),
		turbo.WithGenDefaultMaxNew(4),
		turbo.WithQueueDepth(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"text": "front door"})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cls struct {
		Class int `json:"class"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cls); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cls.Class < 0 || cls.Class >= 3 {
		t.Fatalf("classify via Serve: status %d class %d", resp.StatusCode, cls.Class)
	}

	body, _ = json.Marshal(map[string]interface{}{"text": "generate me", "max_new_tokens": 3})
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var gen struct {
		Tokens []int `json:"tokens"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(gen.Tokens) == 0 {
		t.Fatalf("generate via Serve: status %d tokens %v", resp.StatusCode, gen.Tokens)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}

func TestFacadeDecoder(t *testing.T) {
	cfg := turbo.Seq2SeqDecoder().Scaled(32, 4, 64, 1)
	cfg.MaxTargetLen = 8
	if _, err := turbo.NewDecoder(cfg, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSchedulers(t *testing.T) {
	cost := turbo.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * time.Microsecond
	})
	reqs := []*turbo.Request{{ID: 1, Length: 5}, {ID: 2, Length: 9}}
	for _, s := range []turbo.Scheduler{
		turbo.NewDPScheduler(cost, 4),
		turbo.NewNaiveScheduler(cost, 4),
		turbo.NewNoBatchScheduler(cost),
	} {
		total := 0
		for _, b := range s.Schedule(reqs) {
			total += b.Size()
		}
		if total != len(reqs) {
			t.Fatalf("%s scheduled %d of %d requests", s.Name(), total, len(reqs))
		}
	}
	cc := turbo.WarmupCost(func(l, b int) time.Duration {
		return time.Duration(l) * time.Millisecond
	}, 10, 2, 2)
	if cc.BatchCost(turbo.Shape{Size: 1, MaxLen: 5}) != 5*time.Millisecond {
		t.Fatal("warmup dictionary lookup failed")
	}
}

// TestFacadeServeReplicated drives the WithReplicas front door: Serve
// returns a Router over n identically-weighted replicas, classify and
// generate work unchanged, /v1/stats aggregates with a per-replica
// breakdown, and graceful shutdown drains every replica.
func TestFacadeServeReplicated(t *testing.T) {
	encCfg := turbo.BertBase().Scaled(32, 4, 64, 2)
	decCfg := turbo.Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	srv, err := turbo.Serve(encCfg,
		turbo.WithSeed(3),
		turbo.WithClasses(3),
		turbo.WithGeneration(decCfg),
		turbo.WithGenDefaultMaxNew(4),
		turbo.WithReplicas(3),
		turbo.WithBalancePolicy(turbo.TokenCostRouting),
	)
	if err != nil {
		t.Fatal(err)
	}
	router, ok := srv.(*turbo.Router)
	if !ok {
		t.Fatalf("Serve with replicas returned %T, want *turbo.Router", srv)
	}
	if router.Replicas() != 3 || router.Policy() != turbo.TokenCostRouting {
		t.Fatalf("router shape: %d replicas, policy %v", router.Replicas(), router.Policy())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 9
	for i := 0; i < n; i++ {
		body, _ := json.Marshal(map[string]string{"text": fmt.Sprintf("routed request %d", i)})
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: status %d", i, resp.StatusCode)
		}
	}
	body, _ := json.Marshal(map[string]interface{}{"text": "generate me", "max_new_tokens": 3})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate via routed Serve: status %d", resp.StatusCode)
	}

	stats := router.Stats()
	if stats.Served != n || stats.GenRequests != 1 || len(stats.PerReplica) != 3 {
		t.Fatalf("aggregated stats: %+v", stats)
	}
	var perReplicaServed int64
	for _, rep := range stats.PerReplica {
		perReplicaServed += rep.Served
	}
	if perReplicaServed != n {
		t.Fatalf("per-replica served sums to %d, want %d", perReplicaServed, n)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}

// TestFacadeServeAutoscale: WithAutoscale returns a routed elastic service
// that serves traffic, reports the elastic counters in /v1/stats, and
// shuts down cleanly with the control loop stopped first.
func TestFacadeServeAutoscale(t *testing.T) {
	encCfg := turbo.BertBase().Scaled(32, 4, 64, 2)
	srv, err := turbo.Serve(encCfg,
		turbo.WithSeed(3),
		turbo.WithClasses(3),
		turbo.WithAutoscale(1, 3),
		turbo.WithAutoscaleTick(10*time.Millisecond),
		turbo.WithSLOBudget(50, time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, bare := srv.(*turbo.Server); bare {
		t.Fatal("autoscaled Serve returned a bare *Server — elastic fleets must be routed")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(map[string]string{"text": fmt.Sprintf("elastic request %d", i)})
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Served         int64 `json:"served"`
		ReplicasActive int   `json:"replicas_active"`
		JobsShedSLO    int64 `json:"jobs_shed_slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Served != 6 || stats.ReplicasActive < 1 || stats.ReplicasActive > 3 {
		t.Fatalf("elastic stats: %+v", stats)
	}
	if stats.JobsShedSLO != 0 {
		t.Fatalf("healthy run shed %d jobs", stats.JobsShedSLO)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Close after Shutdown must be safe (both stop the control loop).
	srv.Close()
}

// TestFacadeAutoscaleValidation pins the option conflicts: autoscale is
// exclusive with fixed replica counts and with role-tagged fleets, and bad
// bounds surface at Serve.
func TestFacadeAutoscaleValidation(t *testing.T) {
	cfg := turbo.BertBase().Scaled(32, 4, 64, 2)
	if _, err := turbo.Serve(cfg, turbo.WithClasses(2),
		turbo.WithAutoscale(2, 4), turbo.WithReplicas(2)); err == nil {
		t.Fatal("WithAutoscale + WithReplicas accepted")
	}
	if _, err := turbo.Serve(cfg, turbo.WithClasses(2),
		turbo.WithAutoscale(3, 1)); err == nil {
		t.Fatal("Min > Max accepted")
	}
	if _, err := turbo.Serve(cfg, turbo.WithClasses(2),
		turbo.WithAutoscale(2, 4),
		turbo.WithReplicaRoles(turbo.RolePrefill, turbo.RoleDecode)); err == nil {
		t.Fatal("WithAutoscale + WithReplicaRoles accepted")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := turbo.Experiments()
	if len(ids) != 26 { // 16 paper artefacts + gen-serving + var-length + replica-routing + prefix-cache + fp16-path + disagg-routing + autoscale + 3 extras
		t.Fatalf("experiments: %v", ids)
	}
	var buf bytes.Buffer
	if err := turbo.RunExperiment("table1", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	err := turbo.RunExperiment("nope", &buf)
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	if _, ok := err.(*turbo.UnknownExperimentError); !ok {
		t.Fatalf("error type: %T", err)
	}
}

func TestFacadeEstimator(t *testing.T) {
	est := turbo.NewRTX2060Estimator()
	d := est.EncoderLatency(turbo.TurboProfile(), turbo.BertBase(), 1, 100)
	if d <= 0 {
		t.Fatal("latency must be positive")
	}
}
