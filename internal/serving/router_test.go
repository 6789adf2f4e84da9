package serving

import (
	"bytes"
	"context"
	"encoding/json"
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

// newRouterReplica builds one classify+generate server with the standard
// router-test weights — the same construction for seed replicas and the
// elastically attached ones.
func newRouterReplica(t *testing.T) *Server {
	t.Helper()
	encCfg := model.BertBase().Scaled(32, 4, 64, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(32, 4, 64, 2)
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      4,
		GenDefaultMaxNew: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// routerTestStack builds an n-replica router (classify + generate enabled,
// identical weights per replica) behind an httptest server.
func routerTestStack(t *testing.T, n int, policy BalancePolicy) (*Router, *httptest.Server) {
	t.Helper()
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = newRouterReplica(t)
	}
	router, err := NewRouter(RouterConfig{Policy: policy}, servers...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(func() {
		ts.Close()
		router.Close()
	})
	return router, ts
}

// TestRouterPropertyNoLossNoDupStatsSum is the PR-5 router property test:
// under concurrent mixed classify/generate load over 3 replicas, every
// request resolves exactly once (no job lost), the aggregate served/gen
// counters equal the number of successful responses (no job duplicated or
// run on two replicas — a double-run would overshoot, a loss would
// undershoot or hang), classification answers are identical to a solo
// engine (replicas share weights, so routing must not change results), and
// every aggregated /v1/stats counter equals the sum of the per-replica
// counters. Run under -race in CI.
func TestRouterPropertyNoLossNoDupStatsSum(t *testing.T) {
	for _, policy := range []BalancePolicy{RoundRobin, LeastQueue, TokenCostRouting} {
		t.Run(policy.String(), func(t *testing.T) {
			router, ts := routerTestStack(t, 3, policy)

			// Solo oracle: the same weights answer every classify question.
			oracle, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
			if err != nil {
				t.Fatal(err)
			}

			const nClassify, nGenerate = 36, 18
			texts := make([]string, nClassify)
			want := make([]int, nClassify)
			for i := range texts {
				texts[i] = fmt.Sprintf("request %d %s", i, string(byte('a'+i%26)))
				cls, err := oracle.Classify(context.Background(), [][]int{Tokenize(texts[i], oracle.Cfg.Vocab)})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = cls[0]
			}

			var wg sync.WaitGroup
			var mu sync.Mutex
			classifyOK, generateOK := 0, 0
			genTokens := map[string][]int{} // text → tokens (must be identical across duplicates)
			for i := 0; i < nClassify; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					body, _ := json.Marshal(map[string]interface{}{"text": texts[i]})
					resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("classify %d: %v", i, err)
						return
					}
					defer resp.Body.Close()
					var out classifyResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("classify %d: status %d err %v", i, resp.StatusCode, err)
						return
					}
					if out.Class != want[i] {
						t.Errorf("classify %d: class %d, oracle %d", i, out.Class, want[i])
						return
					}
					mu.Lock()
					classifyOK++
					mu.Unlock()
				}(i)
			}
			for i := 0; i < nGenerate; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					text := fmt.Sprintf("prompt %d", i%6) // duplicates on purpose
					body, _ := json.Marshal(map[string]interface{}{"text": text, "max_new_tokens": 6})
					resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("generate %d: %v", i, err)
						return
					}
					defer resp.Body.Close()
					var out generateResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("generate %d: status %d err %v", i, resp.StatusCode, err)
						return
					}
					if len(out.Tokens) == 0 {
						t.Errorf("generate %d: empty stream", i)
						return
					}
					mu.Lock()
					generateOK++
					if prev, ok := genTokens[text]; ok {
						for j := range prev {
							if prev[j] != out.Tokens[j] {
								t.Errorf("generate %q: replicas disagree: %v vs %v", text, prev, out.Tokens)
								break
							}
						}
					} else {
						genTokens[text] = out.Tokens
					}
					mu.Unlock()
				}(i)
			}
			wg.Wait()
			if classifyOK != nClassify || generateOK != nGenerate {
				t.Fatalf("resolved %d/%d classify, %d/%d generate", classifyOK, nClassify, generateOK, nGenerate)
			}

			// The HTTP handlers release their routing charge in a defer that
			// can still be running when the client has its response; give the
			// handlers a moment to unwind before asserting a drained router.
			deadline := time.Now().Add(2 * time.Second)
			for {
				settled := true
				for _, rep := range router.replicas {
					if rep.inflight.Load() != 0 {
						settled = false
					}
				}
				if settled || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}

			stats := router.Stats()
			// No loss, no duplication: the aggregate equals the response count.
			if stats.Served != int64(nClassify) {
				t.Fatalf("aggregate served %d, want %d", stats.Served, nClassify)
			}
			if stats.GenRequests != int64(nGenerate) {
				t.Fatalf("aggregate gen_requests %d, want %d", stats.GenRequests, nGenerate)
			}
			if stats.JobsRejected != 0 || stats.JobsExpired != 0 || stats.JobsCancelled != 0 {
				t.Fatalf("lifecycle drops under clean load: %+v", stats.statsResponse)
			}
			// Aggregate == Σ per-replica, counter by counter — summed here
			// with independent arithmetic, NOT via aggregateStats, so a
			// counter dropped or double-counted by the production
			// aggregation cannot cancel out of the comparison.
			var sum statsResponse
			var routedSum int64
			for i, rep := range stats.PerReplica {
				routedSum += rep.JobsRouted
				if rep.InFlight != 0 || rep.LoadNS != 0 {
					t.Fatalf("replica %d still charged after all responses: %+v", i, rep)
				}
				sum.Served += rep.Served
				sum.Requests += rep.Requests
				sum.BatchesRun += rep.BatchesRun
				sum.CacheHits += rep.CacheHits
				sum.CacheMiss += rep.CacheMiss
				sum.QueueDepth += rep.QueueDepth
				sum.JobsRejected += rep.JobsRejected
				sum.JobsExpired += rep.JobsExpired
				sum.JobsCancelled += rep.JobsCancelled
				sum.JobsShedSLO += rep.JobsShedSLO
				sum.DrainRate += rep.DrainRate
				sum.DrainMeasured = sum.DrainMeasured || rep.DrainMeasured
				sum.TokensProcessed += rep.TokensProcessed
				sum.GenRequests += rep.GenRequests
				sum.GenTokens += rep.GenTokens
				sum.GenSteps += rep.GenSteps
				if rep.GenPeakBatch > sum.GenPeakBatch {
					sum.GenPeakBatch = rep.GenPeakBatch
				}
				sum.GenPrefillPrompts += rep.GenPrefillPrompts
				sum.GenPrefillPasses += rep.GenPrefillPasses
				sum.GenPrefillTokens += rep.GenPrefillTokens
				sum.GenReservedTokens += rep.GenReservedTokens
				sum.GenKVReservedBytes += rep.GenKVReservedBytes
				sum.GenKVUsedBytes += rep.GenKVUsedBytes
				sum.FP16Enabled = sum.FP16Enabled || rep.FP16Enabled
				sum.FusedLaunches += rep.FusedLaunches
				if rep.KVBytesPerToken > sum.KVBytesPerToken {
					sum.KVBytesPerToken = rep.KVBytesPerToken
				}
				sum.KVBlocksTotal += rep.KVBlocksTotal
				sum.KVBlocksUsed += rep.KVBlocksUsed
				sum.KVBlocksShared += rep.KVBlocksShared
				sum.PrefixHits += rep.PrefixHits
				sum.PrefixMisses += rep.PrefixMisses
				sum.ReplayTokens += rep.ReplayTokens
				sum.GenPreemptions += rep.GenPreemptions
			}
			if sum != stats.statsResponse {
				t.Fatalf("aggregate != Σ per-replica:\nagg %+v\nsum %+v", stats.statsResponse, sum)
			}
			if routedSum != int64(nClassify+nGenerate) {
				t.Fatalf("jobs_routed sums to %d, want %d", routedSum, nClassify+nGenerate)
			}
		})
	}
}

// TestRouterScalePropertyNoLossUnderElasticity extends the PR-5 property
// test with concurrent AddReplica/RemoveReplica cycles under live mixed
// traffic: every request must resolve exactly once with the oracle's
// answer (nothing lost, duplicated, or routed to a retiring replica — a
// job landing on a retiring replica would 503), each removed replica's
// gauges must have drained to exactly zero, and the aggregated stats must
// still reconcile exactly because retired counters fold into the
// aggregate. Run under -race in CI.
func TestRouterScalePropertyNoLossUnderElasticity(t *testing.T) {
	router, ts := routerTestStack(t, 2, LeastQueue)

	oracle, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Extra replicas are pre-built on the test goroutine (the factory uses
	// t.Fatal); the scaler goroutine only attaches and retires.
	const cycles = 3
	extras := make([]*Server, cycles)
	for i := range extras {
		extras[i] = newRouterReplica(t)
	}

	const nClassify, nGenerate = 48, 16
	texts := make([]string, nClassify)
	want := make([]int, nClassify)
	for i := range texts {
		texts[i] = fmt.Sprintf("elastic request %d %s", i, string(byte('a'+i%26)))
		cls, err := oracle.Classify(context.Background(), [][]int{Tokenize(texts[i], oracle.Cfg.Vocab)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cls[0]
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	classifyOK, generateOK := 0, 0
	for i := 0; i < nClassify; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 2 * time.Millisecond) // span the scale cycles
			body, _ := json.Marshal(map[string]interface{}{"text": texts[i]})
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("classify %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var out classifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("classify %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			if out.Class != want[i] {
				t.Errorf("classify %d: class %d, oracle %d", i, out.Class, want[i])
				return
			}
			mu.Lock()
			classifyOK++
			mu.Unlock()
		}(i)
	}
	for i := 0; i < nGenerate; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 5 * time.Millisecond)
			body, _ := json.Marshal(map[string]interface{}{"text": fmt.Sprintf("elastic prompt %d", i), "max_new_tokens": 6})
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("generate %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var out generateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("generate %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			if len(out.Tokens) == 0 {
				t.Errorf("generate %d: empty stream", i)
				return
			}
			mu.Lock()
			generateOK++
			mu.Unlock()
		}(i)
	}

	removed := make([]*Server, 0, cycles)
	scalerDone := make(chan struct{})
	go func() {
		defer close(scalerDone)
		for _, extra := range extras {
			if err := router.AddReplica(extra); err != nil {
				t.Errorf("AddReplica: %v", err)
				return
			}
			time.Sleep(15 * time.Millisecond)
			srv, err := router.RemoveReplica(context.Background())
			if err != nil {
				t.Errorf("RemoveReplica: %v", err)
				return
			}
			removed = append(removed, srv)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-scalerDone
	if classifyOK != nClassify || generateOK != nGenerate {
		t.Fatalf("resolved %d/%d classify, %d/%d generate", classifyOK, nClassify, generateOK, nGenerate)
	}

	// Drain-then-retire: every removed replica left with its allocator
	// gauges at exactly zero — nothing queued, nothing reserved, no KV
	// bytes still on the device.
	for i, srv := range removed {
		srv.gen.engine.Generator.ClosePrefix() // retired generations are not leaks
		snap := srv.statsSnapshot()
		if snap.QueueDepth != 0 || snap.GenReservedTokens != 0 ||
			snap.GenKVReservedBytes != 0 || snap.GenKVUsedBytes != 0 {
			t.Fatalf("removed replica %d not fully drained: depth=%d reserved=%d kvres=%d kvused=%d",
				i, snap.QueueDepth, snap.GenReservedTokens, snap.GenKVReservedBytes, snap.GenKVUsedBytes)
		}
	}

	// Let the routing-charge defers unwind before asserting reconciliation.
	deadline := time.Now().Add(2 * time.Second)
	for {
		settled := true
		router.setMu.RLock()
		for _, rep := range router.replicas {
			if rep.inflight.Load() != 0 {
				settled = false
			}
		}
		router.setMu.RUnlock()
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	stats := router.Stats()
	if stats.ScaleUps != cycles || stats.ScaleDowns != cycles {
		t.Fatalf("scale counters %d/%d, want %d/%d", stats.ScaleUps, stats.ScaleDowns, cycles, cycles)
	}
	if stats.ReplicasActive != 2 || stats.ReplicasRetired != cycles {
		t.Fatalf("fleet shape %d active / %d retired, want 2 / %d", stats.ReplicasActive, stats.ReplicasRetired, cycles)
	}
	// Exact reconciliation across the elastic run: retired replicas' work
	// stays in the aggregate, so Σ served == successful responses.
	if stats.Served != int64(nClassify) {
		t.Fatalf("aggregate served %d, want %d (retired counters must fold in)", stats.Served, nClassify)
	}
	if stats.GenRequests != int64(nGenerate) {
		t.Fatalf("aggregate gen_requests %d, want %d", stats.GenRequests, nGenerate)
	}
	if stats.JobsRejected != 0 || stats.JobsExpired != 0 || stats.JobsCancelled != 0 || stats.JobsShedSLO != 0 {
		t.Fatalf("lifecycle drops under clean elastic load: %+v", stats.statsResponse)
	}
}

// TestRouterElasticValidation: elastic operations refuse what must never
// happen — removing the last replica, adding to a role-tagged router, nil
// servers.
func TestRouterElasticValidation(t *testing.T) {
	router, _ := routerTestStack(t, 1, RoundRobin)
	if _, err := router.RemoveReplica(context.Background()); err == nil {
		t.Fatal("removed the last replica")
	}
	if err := router.AddReplica(nil); err == nil {
		t.Fatal("nil replica attached")
	}

	roleServers := []*Server{newRouterReplica(t), newRouterReplica(t)}
	roled, err := NewRouter(RouterConfig{Roles: []ReplicaRole{RolePrefill, RoleDecode}}, roleServers...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(roled.Close)
	extra := newRouterReplica(t)
	t.Cleanup(extra.Close)
	if err := roled.AddReplica(extra); err == nil {
		t.Fatal("role-tagged router accepted AddReplica")
	}
	if _, err := roled.RemoveReplica(context.Background()); err == nil {
		t.Fatal("role-tagged router accepted RemoveReplica")
	}
}

// TestRouterPolicies pins the routing decisions themselves, with no HTTP
// in the way: token-cost steers the next job away from the priced-loaded
// replica, least-queue away from the inflight-loaded one, round-robin
// cycles regardless, and release refunds exactly what route charged.
func TestRouterPolicies(t *testing.T) {
	mk := func(policy BalancePolicy) *Router {
		router, _ := routerTestStack(t, 2, policy)
		return router
	}

	t.Run("token-cost", func(t *testing.T) {
		router := mk(TokenCostRouting)
		repLong, relLong := router.route(100, 0)
		if repLong != router.replicas[0] {
			t.Fatal("first pick should be replica 0 (tie → lowest index)")
		}
		// While the long job is unresolved, short work must avoid replica 0.
		repShort, relShort := router.route(4, 0)
		if repShort != router.replicas[1] {
			t.Fatal("short job routed onto the replica holding the long prompt")
		}
		// 100 > 4+4: a second short still fits better on replica 1.
		repShort2, relShort2 := router.route(4, 0)
		if repShort2 != router.replicas[1] {
			t.Fatal("second short job should still prefer the lighter replica")
		}
		relLong()
		relShort()
		relShort2()
		for i, rep := range router.replicas {
			if rep.loadNS.Load() != 0 || rep.inflight.Load() != 0 {
				t.Fatalf("replica %d not fully refunded: load=%d inflight=%d", i, rep.loadNS.Load(), rep.inflight.Load())
			}
		}
		// Decode budget counts: a generate with a big budget outweighs a
		// longer prompt with none.
		_, rel1 := router.route(10, 90)
		rep, rel2 := router.route(50, 0)
		if rep != router.replicas[1] {
			t.Fatal("decode budget not priced into routing")
		}
		rel1()
		rel2()
	})

	t.Run("least-queue", func(t *testing.T) {
		router := mk(LeastQueue)
		r1, rel1 := router.route(10, 0)
		r2, rel2 := router.route(10, 0)
		if r1 != router.replicas[0] || r2 != router.replicas[1] {
			t.Fatal("least-queue should spread singles across idle replicas")
		}
		rel1()
		// Replica 0 now idle again, replica 1 still holds one job.
		r3, rel3 := router.route(10, 0)
		if r3 != router.replicas[0] {
			t.Fatal("least-queue ignored the release")
		}
		rel2()
		rel3()
	})

	t.Run("round-robin", func(t *testing.T) {
		router := mk(RoundRobin)
		for i := 0; i < 4; i++ {
			rep, rel := router.route(10, 0)
			if rep != router.replicas[i%2] {
				t.Fatalf("round-robin pick %d landed on the wrong replica", i)
			}
			rel()
		}
	})
}

// TestRouterShutdownDrains: a routed service must refuse new work with 503
// after Shutdown on every replica, and Shutdown must return cleanly with
// nothing in flight.
func TestRouterShutdownDrains(t *testing.T) {
	router, ts := routerTestStack(t, 2, RoundRobin)
	body, _ := json.Marshal(map[string]string{"text": "warm"})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown classify: %v %v", err, resp)
	}
	resp.Body.Close()

	if err := router.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Both replicas refuse — whatever replica the policy picks.
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-shutdown classify %d: status %d, want 503", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestNewRouterValidation: zero or nil replicas are configuration bugs.
func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("empty router accepted")
	}
	if _, err := NewRouter(RouterConfig{}, nil); err == nil {
		t.Fatal("nil replica accepted")
	}
}

// TestParseBalancePolicy round-trips every policy name and rejects junk.
func TestParseBalancePolicy(t *testing.T) {
	for _, p := range []BalancePolicy{RoundRobin, LeastQueue, TokenCostRouting} {
		got, err := ParseBalancePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: %v %v", p, got, err)
		}
	}
	if _, err := ParseBalancePolicy("nope"); err == nil {
		t.Fatal("junk policy accepted")
	}
}

func TestBalancePolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastQueue.String() != "least-queue" || TokenCostRouting.String() != "token-cost" {
		t.Fatal("policy names")
	}
}
