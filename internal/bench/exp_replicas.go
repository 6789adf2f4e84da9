package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
	"repro/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "replica-routing",
		Title: "Multi-replica routing policies under skewed variable-length traffic (live router + cluster simulator)",
		Paper: "§5 assumes an upper-level Nexus-style balancer above the single-GPU servers; cost-aware routing is the missing layer above iteration-level batching",
		Run:   runReplicaRouting,
	})
}

// replicaRoutingParams sizes the experiment; the smoke test runs a tiny
// variant so CI exercises the wiring without the full measurement.
type replicaRoutingParams struct {
	hidden, heads, inter, layers int
	replicas                     int
	n                            int // requests per policy run
	shortLo, shortHi             int
	longLen                      int
	longFrac                     float64
	util                         float64 // offered load as a fraction of cluster capacity
	// reps is the best-of repetitions per condition. A run's p99 rides on
	// the four slowest of n = 400 requests; with the engine several times
	// faster than when this was sized, queueing at the set utilisation is
	// rarer and two repetitions no longer separate the policies from that
	// noise (the verdict flipped in ≈ 1 run of 5; with four, 1 of 20).
	reps int
	seed int64
}

func defaultReplicaRoutingParams() replicaRoutingParams {
	return replicaRoutingParams{
		hidden: 64, heads: 4, inter: 256, layers: 2,
		replicas: 2, n: 400,
		shortLo: 4, shortHi: 12, longLen: 96, longFrac: 0.10,
		util: 0.75, reps: 4, seed: 99,
	}
}

// routingDist names a traffic shape and draws request lengths from it.
type routingDist struct {
	name string
	draw func(rng *rand.Rand) int
}

func routingDists(p replicaRoutingParams) []routingDist {
	return []routingDist{
		{"short-skewed", func(rng *rand.Rand) int {
			if rng.Float64() < p.longFrac {
				return p.longLen
			}
			return p.shortLo + rng.Intn(p.shortHi-p.shortLo+1)
		}},
		{"bimodal", func(rng *rand.Rand) int {
			if rng.Intn(2) == 0 {
				return p.shortLo + 4
			}
			return p.longLen
		}},
	}
}

// newRoutingReplica builds one serving replica: its own engine (identical
// weights across replicas — same seed), its own DP scheduler, queue, and
// dispatchers.
func newRoutingReplica(cfg model.Config, maxBatch int) (*serving.Server, error) {
	engine, err := core.NewEngine(cfg, core.Options{Seed: 7, Classes: 4})
	if err != nil {
		return nil, err
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	return serving.NewServer(serving.ServerConfig{
		Engine:    engine,
		Scheduler: &sched.DPScheduler{Cost: cost, MaxBatch: maxBatch},
		MaxBatch:  maxBatch,
	})
}

// traceEvent is one request of a generated arrival trace.
type traceEvent struct {
	at  time.Duration
	len int
}

// buildTrace draws n request lengths from the distribution and paces them
// uniformly so offered load sits at util × cluster capacity under the
// fitted cost model. (Pacing, not bursts: on one CPU the replicas share
// cores, so burst arrivals measure OS-scheduler contention more than
// routing quality — the simulator covers burst dynamics on a virtual
// clock instead.)
func buildTrace(p replicaRoutingParams, draw func(*rand.Rand) int, fit *sched.TokenCost, servers int, seed int64) []traceEvent {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]traceEvent, p.n)
	var meanCost float64
	for i := range trace {
		trace[i].len = draw(rng)
		meanCost += float64(fit.RequestCost(trace[i].len, 0))
	}
	meanCost /= float64(p.n)
	gap := time.Duration(meanCost / (p.util * float64(servers)))
	for i := range trace {
		trace[i].at = time.Duration(i) * gap
	}
	return trace
}

// runTrace replays one trace against a front door (bare server or router)
// and returns the wall-clock latencies of the SERVED requests, the
// makespan, and how many requests did not come back 200. Failed requests
// (a 429 resolves in microseconds) are excluded from the latency set so a
// policy that sheds load cannot deflate its own tail percentiles.
func runTrace(handler http.Handler, trace []traceEvent) (lat []time.Duration, makespan time.Duration, failed int) {
	all := make([]time.Duration, len(trace))
	ok := make([]bool, len(trace))
	var wg sync.WaitGroup
	start := liveNow()
	for i, ev := range trace {
		for liveSince(start) < ev.at {
			liveSleep(20 * time.Microsecond)
		}
		wg.Add(1)
		go func(i, l int) {
			defer wg.Done()
			// Distinct texts defeat any response caching; length == tokens
			// under the byte-level tokenizer.
			text := make([]byte, l)
			for j := range text {
				text[j] = byte('a' + (i+j)%26)
			}
			body, _ := json.Marshal(map[string]string{"text": string(text)})
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t0 := liveNow()
			handler.ServeHTTP(rec, req)
			all[i] = liveSince(t0)
			ok[i] = rec.Code == http.StatusOK
		}(i, ev.len)
	}
	wg.Wait()
	makespan = liveSince(start)
	lat = make([]time.Duration, 0, len(trace))
	for i, d := range all {
		if ok[i] {
			lat = append(lat, d)
		} else {
			failed++
		}
	}
	return lat, makespan, failed
}

// pctile returns the p-quantile of ds through the same nearest-rank
// implementation the simulator reports (simclock.LatencyStats), so the
// live p99 and the sim p99 it is shape-checked against share one
// definition.
func pctile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	stats := simclock.NewLatencyStats()
	for _, d := range ds {
		stats.Add(d.Seconds())
	}
	return time.Duration(stats.Percentile(p) * 1e9)
}

// liveResult is one (distribution, policy) measurement.
type liveResult struct {
	p50, p95, p99 time.Duration
	makespan      time.Duration
	failed        int
	routedShare   []int64
}

// measurePolicy builds a fresh router (fresh replicas — nothing shared
// between conditions) and replays the trace, best-of reps.
func measurePolicy(p replicaRoutingParams, cfg model.Config, policy serving.BalancePolicy, fit *sched.TokenCost, trace []traceEvent) (liveResult, error) {
	var best liveResult
	for rep := 0; rep < p.reps; rep++ {
		servers := make([]*serving.Server, 0, p.replicas)
		closeAll := func() {
			for _, s := range servers {
				s.Close()
			}
		}
		for i := 0; i < p.replicas; i++ {
			s, err := newRoutingReplica(cfg, 8)
			if err != nil {
				closeAll()
				return best, err
			}
			servers = append(servers, s)
		}
		router, err := serving.NewRouter(serving.RouterConfig{Policy: policy, Cost: fit}, servers...)
		if err != nil {
			closeAll()
			return best, err
		}
		lat, makespan, failed := runTrace(router.Handler(), trace)
		stats := router.Stats()
		router.Close()
		res := liveResult{
			p50:      pctile(lat, 0.50),
			p95:      pctile(lat, 0.95),
			p99:      pctile(lat, 0.99),
			makespan: makespan,
			failed:   failed,
		}
		for _, r := range stats.PerReplica {
			res.routedShare = append(res.routedShare, r.JobsRouted)
		}
		if rep == 0 || res.p99 < best.p99 {
			best = res
		}
	}
	return best, nil
}

func runReplicaRouting(w io.Writer) error {
	return runReplicaRoutingWith(w, defaultReplicaRoutingParams())
}

func runReplicaRoutingWith(w io.Writer, p replicaRoutingParams) error {
	cfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)

	// Warm-up fit: price uniform (len, batch) encodes on a scratch engine
	// and fit the three-term token cost — the SAME RouteCostModel the
	// router's token-cost policy prices admissions with.
	scratch, err := core.NewEngine(cfg, core.Options{Seed: 7, Classes: 4})
	if err != nil {
		return err
	}
	price := func(seqLen, batch int) time.Duration {
		toks := make([][]int, batch)
		for i := range toks {
			row := make([]int, seqLen)
			for j := range row {
				row[j] = 3 + (i*31+j*7)%(cfg.Vocab-3)
			}
			toks[i] = row
		}
		t0 := liveNow()
		if _, _, err := scratch.Encode(toks); err != nil {
			panic(err)
		}
		return liveSince(t0)
	}
	stride := p.longLen / 4
	if stride < 1 {
		stride = 1
	}
	fit := sched.FitTokenCost(price, p.longLen, 4, stride)

	fmt.Fprintf(w, "live router: %d replicas of encoder (hidden %d, %d layers), %d requests/run, util %.0f%%, route cost fixed=%.0fns perTok=%.0fns perTok²=%.2fns\n",
		p.replicas, p.hidden, p.layers, p.n, 100*p.util, fit.Fixed, fit.PerToken, fit.PerSqToken)

	policies := []serving.BalancePolicy{serving.RoundRobin, serving.LeastQueue, serving.TokenCostRouting}
	msf := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }

	for _, dist := range routingDists(p) {
		trace := buildTrace(p, dist.draw, fit, p.replicas, p.seed)
		t := newTable(w)
		t.row("dist="+dist.name, "p50-ms", "p95-ms", "p99-ms", "makespan-ms", "failed", "routed")
		results := map[serving.BalancePolicy]liveResult{}
		for _, policy := range policies {
			res, err := measurePolicy(p, cfg, policy, fit, trace)
			if err != nil {
				return err
			}
			results[policy] = res
			t.row(policy.String(), msf(res.p50), msf(res.p95), msf(res.p99), msf(res.makespan), res.failed, fmt.Sprint(res.routedShare))
			RecordMetric("replica-routing", fmt.Sprintf("%s/p99_ms/%s", dist.name, policy), float64(res.p99)/1e6)
			RecordMetric("replica-routing", fmt.Sprintf("%s/p50_ms/%s", dist.name, policy), float64(res.p50)/1e6)
		}
		t.flush()
		rr, tc := results[serving.RoundRobin], results[serving.TokenCostRouting]
		if dist.name == "short-skewed" {
			// The acceptance claim: cost-aware routing beats round-robin on
			// tail latency where length skew misprices queue slots the worst.
			// Typical margin is 10–30%; the verdict carries a 10% band so a
			// loaded CI runner's wall-clock jitter (the live p99 rides on a
			// handful of tail samples) cannot flip a structural win — the
			// deterministic simulator check below has no band.
			// A policy may not buy its tail by shedding: failed requests are
			// excluded from the percentiles, so beating round-robin while
			// failing more than it does not count.
			verdict := "PASS"
			if float64(tc.p99) > 1.10*float64(rr.p99) || tc.failed > rr.failed {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  %s: token-cost p99 %sms vs round-robin %sms → %s\n", dist.name, msf(tc.p99), msf(rr.p99), verdict)
		} else {
			fmt.Fprintf(w, "  %s: token-cost p99 %sms vs round-robin %sms\n", dist.name, msf(tc.p99), msf(rr.p99))
		}
	}

	// Single-replica overhead guard: the router with one replica must not
	// cost throughput against the bare PR-4 server on the same trace.
	skew := routingDists(p)[0]
	soloTrace := buildTrace(p, skew.draw, fit, 1, p.seed+1)
	var bareBest, routedBest time.Duration
	for rep := 0; rep < p.reps; rep++ {
		bare, err := newRoutingReplica(cfg, 8)
		if err != nil {
			return err
		}
		_, bareMake, _ := runTrace(bare.Handler(), soloTrace)
		bare.Close()
		if rep == 0 || bareMake < bareBest {
			bareBest = bareMake
		}
		single, err := newRoutingReplica(cfg, 8)
		if err != nil {
			return err
		}
		router, err := serving.NewRouter(serving.RouterConfig{Policy: serving.TokenCostRouting, Cost: fit}, single)
		if err != nil {
			return err
		}
		_, routedMake, _ := runTrace(router.Handler(), soloTrace)
		router.Close()
		if rep == 0 || routedMake < routedBest {
			routedBest = routedMake
		}
	}
	overhead := float64(routedBest)/float64(bareBest) - 1
	verdict := "PASS"
	if overhead > 0.10 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "single-replica overhead: router(1) makespan %sms vs bare server %sms (%+.1f%%) → %s\n",
		msf(routedBest), msf(bareBest), 100*overhead, verdict)
	RecordMetric("replica-routing", "single_replica_overhead_pct", 100*overhead)

	// Simulator cross-check: the cluster simulator must agree on the SHAPE
	// — token-cost routing does not lose to round-robin on tail latency
	// under the skewed distribution (same policies, virtual clock, so the
	// agreement is about structure, not noise).
	fmt.Fprintln(w, "cluster-simulator shape check (virtual clock, same policies):")
	simCostModel := sched.CostFunc(func(l, b int) time.Duration {
		return fit.BatchCost(l, b)
	})
	t := newTable(w)
	t.row("sim policy", "served/s", "avg-ms", "p99-ms")
	var simP99 = map[serving.BalancePolicy]float64{}
	for _, policy := range policies {
		res, err := servingsim.Run(servingsim.Config{
			Servers:  p.replicas,
			Policy:   policy,
			Rate:     400,
			Warmup:   2,
			Duration: 8,
			Seed:     p.seed,
			LenSampler: func(rng *rand.Rand) int {
				return skew.draw(rng)
			},
			NewScheduler: func() sched.Scheduler {
				return &sched.DPScheduler{Cost: simCostModel, MaxBatch: 8}
			},
			Cost:      simCostModel,
			RouteCost: fit,
			MaxBatch:  8,
		})
		if err != nil {
			return err
		}
		simP99[policy] = res.LatencyP99
		t.row(policy.String(), fmt.Sprintf("%.0f", res.ServedPerSec), ms(res.LatencyAvg), ms(res.LatencyP99))
		RecordMetric("replica-routing", "sim/p99_ms/"+policy.String(), res.LatencyP99*1e3)
	}
	t.flush()
	simVerdict := "PASS"
	if simP99[serving.TokenCostRouting] > simP99[serving.RoundRobin] {
		simVerdict = "FAIL"
	}
	fmt.Fprintf(w, "  sim shape: token-cost p99 %.2fms vs round-robin %.2fms → %s\n",
		simP99[serving.TokenCostRouting]*1e3, simP99[serving.RoundRobin]*1e3, simVerdict)
	return nil
}
