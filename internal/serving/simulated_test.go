// The fleet simulator's behaviour tests. The simulator is
// internal/servingsim; these black-box tests were written against the four
// simulators that used to live in this package and stay in this directory, as
// an external test package, so that their test IDs
// (repro/internal/serving:TestSim…, TestCluster…, TestElastic…, TestGenSim…)
// keep naming them. The golden matrix, the config validation table and the
// white-box replica tests are in internal/servingsim.
package serving_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
	"repro/internal/simclock"
)

// run is servingsim.Run for configurations that must be valid.
func run(t *testing.T, cfg servingsim.Config) servingsim.Result {
	t.Helper()
	res, err := servingsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simCost mirrors the GPU batch-cost surface used by the scheduler tests.
func simCost(seqLen, batchSize int) time.Duration {
	base := 300 * time.Microsecond
	work := float64(seqLen) * math.Pow(float64(batchSize), 0.7) * float64(25*time.Microsecond)
	return base + time.Duration(work)
}

// baseSim is one hungry replica under the given scheduler.
func baseSim(rate float64, s sched.Scheduler) servingsim.Config {
	return servingsim.Config{
		Rate:         rate,
		Warmup:       2,
		Duration:     8,
		Seed:         42,
		LenLo:        2,
		LenHi:        100,
		NewScheduler: func() sched.Scheduler { return s },
		Cost:         sched.CostFunc(simCost),
		MaxBatch:     20,
	}
}

func TestSimDeterministic(t *testing.T) {
	cfg := baseSim(100, &sched.DPScheduler{Cost: sched.CostFunc(simCost), MaxBatch: 20})
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Served != b.Served || a.LatencyAvg != b.LatencyAvg {
		t.Fatalf("non-deterministic sim: %+v vs %+v", a, b)
	}
}

func TestSimLowLoadServesEverything(t *testing.T) {
	cfg := baseSim(20, &sched.NoBatchScheduler{Cost: sched.CostFunc(simCost)})
	res := run(t, cfg)
	if res.Saturated {
		t.Fatalf("low load should not saturate: %+v", res)
	}
	// Served rate within 15% of offered (Poisson noise + window edges).
	if res.ServedPerSec < 0.85*cfg.Rate || res.ServedPerSec > 1.15*cfg.Rate {
		t.Fatalf("served %v at offered %v", res.ServedPerSec, cfg.Rate)
	}
	if res.LatencyAvg <= 0 || math.IsNaN(res.LatencyAvg) {
		t.Fatalf("latency: %+v", res)
	}
}

func TestSimThroughputPlateausAtSaturation(t *testing.T) {
	mk := func(rate float64) servingsim.Result {
		return run(t, baseSim(rate, &sched.NoBatchScheduler{Cost: sched.CostFunc(simCost)}))
	}
	// Single-request cost averages ~1.6ms → capacity ≈ 600/s.
	low := mk(300)
	at := mk(2000)
	higher := mk(3000)
	if !at.Saturated || !higher.Saturated {
		t.Fatalf("high offered load must saturate: %+v / %+v", at, higher)
	}
	if low.Saturated {
		t.Fatalf("sub-capacity load must not saturate: %+v", low)
	}
	// Past saturation, served throughput plateaus (within 10%).
	ratio := at.ServedPerSec / higher.ServedPerSec
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("throughput should plateau: %v vs %v", at.ServedPerSec, higher.ServedPerSec)
	}
}

// The headline serving result (Fig. 15): batching lifts saturated
// throughput, and DP batching beats naive batching on variable lengths.
func TestSimSchedulerOrderingAtHighLoad(t *testing.T) {
	cost := sched.CostFunc(simCost)
	at3000 := func(s sched.Scheduler) servingsim.Result {
		return run(t, baseSim(3000, s))
	}
	nobatch := at3000(&sched.NoBatchScheduler{Cost: cost})
	naive := at3000(&sched.NaiveScheduler{Cost: cost, MaxBatch: 20})
	dp := at3000(&sched.DPScheduler{Cost: cost, MaxBatch: 20})

	if naive.ServedPerSec <= nobatch.ServedPerSec {
		t.Fatalf("batching should lift throughput: naive %v vs nobatch %v",
			naive.ServedPerSec, nobatch.ServedPerSec)
	}
	if dp.ServedPerSec <= naive.ServedPerSec {
		t.Fatalf("DP should beat naive on variable lengths: %v vs %v",
			dp.ServedPerSec, naive.ServedPerSec)
	}
}

func TestSimLazyStrategyWaitsForBatch(t *testing.T) {
	cost := sched.CostFunc(simCost)
	cfg := baseSim(50, &sched.DPScheduler{Cost: cost, MaxBatch: 20})
	cfg.Strategy = servingsim.Lazy
	cfg.LazyTimeout = 0.050
	cfg.SLO = 1
	lazy := run(t, cfg)

	hungry := baseSim(50, &sched.DPScheduler{Cost: cost, MaxBatch: 20})
	hung := run(t, hungry)

	if lazy.Served == 0 || hung.Served == 0 {
		t.Fatal("both strategies must serve")
	}
	// Lazy trades latency for batching: average latency should not be
	// lower than hungry at light load.
	if lazy.LatencyAvg < hung.LatencyAvg {
		t.Fatalf("lazy should not have lower latency at light load: %v vs %v",
			lazy.LatencyAvg, hung.LatencyAvg)
	}
}

func TestSimFixedLengthDistribution(t *testing.T) {
	cfg := baseSim(100, &sched.NoBatchScheduler{Cost: sched.CostFunc(simCost)})
	cfg.LenLo, cfg.LenHi = 64, 64
	res := run(t, cfg)
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
}

func clusterCfg(servers int, rate float64, policy serving.BalancePolicy) servingsim.Config {
	cost := sched.CostFunc(simCost)
	return servingsim.Config{
		Servers:  servers,
		Policy:   policy,
		Rate:     rate,
		Warmup:   2,
		Duration: 8,
		Seed:     77,
		LenLo:    2,
		LenHi:    100,
		NewScheduler: func() sched.Scheduler {
			return &sched.DPScheduler{Cost: cost, MaxBatch: 20}
		},
		Cost:     cost,
		MaxBatch: 20,
	}
}

func TestClusterDeterministic(t *testing.T) {
	a := run(t, clusterCfg(2, 200, serving.LeastQueue))
	b := run(t, clusterCfg(2, 200, serving.LeastQueue))
	if a.Served != b.Served || a.LatencyAvg != b.LatencyAvg {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestClusterSingleServerMatchesScale: a one-replica hungry fleet IS the
// single-server simulation. The numbers are what the separate single-server
// simulator returned for this configuration before the simulators were merged
// (servingsim's golden matrix records that run as single-hungry-one-replica).
func TestClusterSingleServerMatchesScale(t *testing.T) {
	res := run(t, clusterCfg(1, 50, serving.RoundRobin))
	type single struct {
		OfferedRate                        float64
		Served                             int64
		ServedPerSec                       float64
		LatencyAvg, LatencyMin, LatencyMax float64
		Saturated                          bool
		FinalQueueLen                      int
	}
	got := single{res.OfferedRate, res.Served, res.ServedPerSec, res.LatencyAvg, res.LatencyMin, res.LatencyMax, res.Saturated, res.FinalQueueLen}
	want := single{
		OfferedRate:  50,
		Served:       384,
		ServedPerSec: 48,
		LatencyAvg:   0x1.ab710ec4b48ebp-10,
		LatencyMin:   0x1.6f0068db88p-12,
		LatencyMax:   0x1.4d73e0515ep-08,
	}
	if got != want {
		t.Fatalf("one-replica fleet\n got  %+v\n want %+v", got, want)
	}
}

// overloadCfg is clusterCfg at 8000 req/s over 1.25 virtual seconds: the
// backlog builds from the first arrivals, so one measured second shows the
// capacity plateau and the deadline drops.
func overloadCfg(servers int) servingsim.Config {
	cfg := clusterCfg(servers, 8000, serving.LeastQueue)
	cfg.Warmup, cfg.Duration = 0.25, 1
	return cfg
}

// The load balancer's purpose (§5): capacity scales with server count.
func TestClusterThroughputScales(t *testing.T) {
	cap1 := run(t, overloadCfg(1)).ServedPerSec
	cap2 := run(t, overloadCfg(2)).ServedPerSec
	cap4 := run(t, overloadCfg(4)).ServedPerSec
	if cap2 < 1.7*cap1 {
		t.Fatalf("2 servers should ~double capacity: %v vs %v", cap2, cap1)
	}
	if cap4 < 1.7*cap2 {
		t.Fatalf("4 servers should ~double again: %v vs %v", cap4, cap2)
	}
}

func TestClusterBalancePolicies(t *testing.T) {
	rr := run(t, clusterCfg(4, 600, serving.RoundRobin))
	lq := run(t, clusterCfg(4, 600, serving.LeastQueue))
	for _, res := range []servingsim.Result{rr, lq} {
		if res.Served == 0 {
			t.Fatalf("no requests served: %+v", res)
		}
		// Work spread across all servers.
		for i, s := range res.PerServerServed {
			if s == 0 {
				t.Fatalf("server %d idle: %+v", i, res)
			}
		}
	}
	// Least-queue should not have materially worse latency than round-robin.
	if !math.IsNaN(rr.LatencyAvg) && lq.LatencyAvg > 1.5*rr.LatencyAvg {
		t.Fatalf("least-queue latency %v way above round-robin %v", lq.LatencyAvg, rr.LatencyAvg)
	}
}

func TestClusterRoundRobinEvenSplit(t *testing.T) {
	res := run(t, clusterCfg(3, 300, serving.RoundRobin))
	var min, max int64 = 1 << 62, 0
	for _, s := range res.PerServerServed {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if float64(min) < 0.7*float64(max) {
		t.Fatalf("round robin split uneven: %v", res.PerServerServed)
	}
}

// TestClusterDeadlineShedsOverload: under heavy overload a per-request
// deadline must shed backlog as expired drops while the cluster keeps
// serving; without deadlines nothing expires.
func TestClusterDeadlineShedsOverload(t *testing.T) {
	cfg := overloadCfg(2)
	cfg.DeadlineSec = 0.05
	res := run(t, cfg)
	if res.Expired == 0 {
		t.Fatalf("overloaded cluster with 50ms deadline expired nothing: %+v", res)
	}
	if res.Served == 0 {
		t.Fatalf("deadline cluster served nothing: %+v", res)
	}
	if free := run(t, overloadCfg(2)); free.Expired != 0 {
		t.Fatalf("no-deadline cluster expired %d", free.Expired)
	}
}

func TestClusterDefaults(t *testing.T) {
	cfg := clusterCfg(0, 50, serving.RoundRobin)
	cfg.MaxBatch = 0
	res := run(t, cfg) // clamped to 1 server, batch 1
	if len(res.PerServerServed) != 1 {
		t.Fatalf("servers clamp: %+v", res)
	}
}

// shortSkewSampler is the routing experiments' traffic shape: mostly short
// requests with a heavy long tail — the distribution where counting queue
// slots misprices load the worst.
func shortSkewSampler(rng *rand.Rand) int {
	if rng.Float64() < 0.9 {
		return 2 + rng.Intn(8)
	}
	return 300 + rng.Intn(200)
}

// TestClusterTokenCostRoutingBeatsRoundRobinOnSkew: under short-skewed
// traffic, pricing requests by token cost must not let long prompts pile
// onto one server's queue behind shorts — tail latency beats round-robin,
// and nothing is lost (comparable served counts).
func TestClusterTokenCostRoutingBeatsRoundRobinOnSkew(t *testing.T) {
	run := func(policy serving.BalancePolicy) servingsim.Result {
		cfg := clusterCfg(3, 400, policy)
		cfg.LenSampler = shortSkewSampler
		return run(t, cfg)
	}
	rr := run(serving.RoundRobin)
	tc := run(serving.TokenCostRouting)
	if tc.Served == 0 || rr.Served == 0 {
		t.Fatalf("no traffic: rr %+v tc %+v", rr, tc)
	}
	if float64(tc.Served) < 0.95*float64(rr.Served) {
		t.Fatalf("token-cost served %d vs round-robin %d", tc.Served, rr.Served)
	}
	if tc.LatencyP99 > rr.LatencyP99 {
		t.Fatalf("token-cost p99 %.4fs worse than round-robin %.4fs", tc.LatencyP99, rr.LatencyP99)
	}
	if tc.LatencyAvg > rr.LatencyAvg {
		t.Fatalf("token-cost avg %.4fs worse than round-robin %.4fs", tc.LatencyAvg, rr.LatencyAvg)
	}
}

// elasticCfg builds a flash-crowd elastic run: steady base load one server
// handles easily, a crowd that needs several, then base again. fixed > 0
// pins the fleet; 0 puts the autoscale controller in the loop (1..4).
func elasticCfg(fixed int) servingsim.Config {
	cost := sched.CostFunc(simCost)
	cfg := servingsim.Config{
		Servers:     fixed,
		Rate:        3000,
		RateAt:      simclock.FlashCrowdRate(200, 3000, 8, 2, 6, 2),
		Duration:    30,
		Drain:       true,
		Seed:        99,
		LenLo:       2,
		LenHi:       100,
		DeadlineSec: 0.5,
		NewScheduler: func() sched.Scheduler {
			return &sched.DPScheduler{Cost: cost, MaxBatch: 20}
		},
		Cost:     cost,
		MaxBatch: 20,
		Policy:   serving.LeastQueue,
	}
	if fixed == 0 {
		cfg.Autoscale = &autoscale.Config{Min: 1, Max: 4}
	}
	return cfg
}

// TestElasticDeterministicAndReconciles: same seed → identical runs, and
// the accounting identity holds exactly — every arrival is served or
// expired, none lost, across scale-ups AND drain-then-retire scale-downs.
func TestElasticDeterministicAndReconciles(t *testing.T) {
	a, err := servingsim.Run(elasticCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := servingsim.Run(elasticCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.Expired != b.Expired || a.ScaleUps != b.ScaleUps {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	if a.Lost != 0 || a.Arrivals != a.Served+a.Expired {
		t.Fatalf("accounting broken: %+v", a)
	}
	if a.ScaleUps < 1 {
		t.Fatalf("flash crowd never triggered scale-up: %+v", a)
	}
	if a.ScaleDowns < 1 {
		t.Fatalf("post-crowd base load never triggered scale-down: %+v", a)
	}
	if a.PeakReplicas <= 1 || a.PeakReplicas > 4 {
		t.Fatalf("peak replicas out of bounds: %+v", a)
	}
	if a.FinalReplicas > a.PeakReplicas {
		t.Fatalf("fleet grew after the crowd: %+v", a)
	}
}

// TestFixedFleetReconciles: the fixed baseline path uses the same
// accounting and also loses nothing.
func TestFixedFleetReconciles(t *testing.T) {
	res, err := servingsim.Run(elasticCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Arrivals != res.Served+res.Expired {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.ScaleUps != 0 || res.ScaleDowns != 0 {
		t.Fatalf("fixed fleet scaled: %+v", res)
	}
	if res.PeakReplicas != 2 || res.FinalReplicas != 2 {
		t.Fatalf("fixed fleet size drifted: %+v", res)
	}
}

// TestElasticBeatsUnderprovisionedFixed: against a fixed fleet pinned at
// the autoscaler's Min, the autoscaler must miss fewer deadlines and have
// a better p99 on the flash-crowd trace — the headline the bench gates on.
func TestElasticBeatsUnderprovisionedFixed(t *testing.T) {
	auto, err := servingsim.Run(elasticCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	fixed1, err := servingsim.Run(elasticCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if auto.MissRate >= fixed1.MissRate {
		t.Fatalf("autoscaler miss rate %.4f not below fixed-1 %.4f", auto.MissRate, fixed1.MissRate)
	}
	if auto.LatencyP99 >= fixed1.LatencyP99 {
		t.Fatalf("autoscaler p99 %.4f not below fixed-1 %.4f", auto.LatencyP99, fixed1.LatencyP99)
	}
}

// TestElasticCheaperThanFixedPeak: the autoscaler must bill fewer
// replica-seconds than a fleet pinned at its Max — elasticity's other half.
func TestElasticCheaperThanFixedPeak(t *testing.T) {
	auto, err := servingsim.Run(elasticCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	fixed4, err := servingsim.Run(elasticCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if auto.ReplicaSeconds >= fixed4.ReplicaSeconds {
		t.Fatalf("autoscaler replica-seconds %.1f not below fixed-4 %.1f",
			auto.ReplicaSeconds, fixed4.ReplicaSeconds)
	}
}

// TestElasticBadConfigRejected: an invalid autoscale config surfaces as an
// error, not a silently pinned fleet.
func TestElasticBadConfigRejected(t *testing.T) {
	cfg := elasticCfg(0)
	cfg.Autoscale = &autoscale.Config{Min: 3, Max: 1}
	if _, err := servingsim.Run(cfg); err == nil {
		t.Fatal("invalid bounds accepted")
	}
}

// testStepCost is a decode-iteration cost with a launch floor, a per-row
// term, and a per-context-token attention term — the shape that makes
// padding and stragglers expensive.
func testStepCost(ctxs []int) time.Duration {
	d := 40 * time.Microsecond
	for _, c := range ctxs {
		d += 4*time.Microsecond + time.Duration(c)*200*time.Nanosecond
	}
	return d
}

func testPrefill(promptLen int) time.Duration {
	return 20*time.Microsecond + time.Duration(promptLen)*time.Microsecond
}

func genSimConfig(rate float64, continuous bool) servingsim.GenConfig {
	cfg := servingsim.GenConfig{
		Rate:        rate,
		Warmup:      2,
		Duration:    10,
		Seed:        99,
		PromptLo:    8,
		PromptHi:    64,
		NewLo:       8,
		NewHi:       64,
		MaxBatch:    8,
		Continuous:  continuous,
		StepCost:    testStepCost,
		PrefillCost: testPrefill,
	}
	if !continuous {
		cost := sched.CostFunc(func(l, b int) time.Duration {
			ctxs := make([]int, b)
			for i := range ctxs {
				ctxs[i] = l
			}
			return testStepCost(ctxs) * 36
		})
		cfg.Scheduler = &sched.DPScheduler{Cost: cost, MaxBatch: 8}
	}
	return cfg
}

func TestGenSimBasics(t *testing.T) {
	for _, continuous := range []bool{false, true} {
		res := servingsim.RunGeneration(genSimConfig(50, continuous))
		if res.Served == 0 {
			t.Fatalf("continuous=%v served nothing", continuous)
		}
		if res.LatencyP99 < res.LatencyP50 || res.LatencyMax < res.LatencyP99 {
			t.Fatalf("continuous=%v percentile ordering broken: %+v", continuous, res)
		}
		if res.TokensPerSec <= res.ServedPerSec {
			t.Fatalf("continuous=%v tokens/s %f should exceed req/s %f", continuous, res.TokensPerSec, res.ServedPerSec)
		}
	}
}

// TestContinuousBeatsStatic is the tentpole acceptance property at the
// simulation level: on the variable-length generation workload the
// iteration-level scheduler must beat static DP batching on tail latency
// at every load, and must not lose throughput.
func TestContinuousBeatsStatic(t *testing.T) {
	for _, rate := range []float64{50, 120, 250} {
		st := servingsim.RunGeneration(genSimConfig(rate, false))
		ct := servingsim.RunGeneration(genSimConfig(rate, true))
		if ct.Served < st.Served {
			t.Fatalf("rate %.0f: continuous served %d < static %d", rate, ct.Served, st.Served)
		}
		if st.Saturated && !ct.Saturated {
			continue // static saturated first: continuous wins outright
		}
		if ct.Saturated && !st.Saturated {
			t.Fatalf("rate %.0f: continuous saturated before static", rate)
		}
		if ct.LatencyP99 >= st.LatencyP99 {
			t.Fatalf("rate %.0f: continuous p99 %.4fs not better than static %.4fs",
				rate, ct.LatencyP99, st.LatencyP99)
		}
	}
}

// TestGenSimDeterminism: same seed, same result — the property the bench
// experiments rely on.
func TestGenSimDeterminism(t *testing.T) {
	a := servingsim.RunGeneration(genSimConfig(80, true))
	b := servingsim.RunGeneration(genSimConfig(80, true))
	if a != b {
		t.Fatalf("non-deterministic sim: %+v vs %+v", a, b)
	}
}

// TestGenSimDeadlineDropsBacklog: under overload with a per-request
// deadline, both disciplines must shed the backlog as expired drops
// instead of queueing it forever, while still serving fresh work — and the
// survivors' completion latency can never exceed deadline + service time
// bounds seen without deadlines.
func TestGenSimDeadlineDropsBacklog(t *testing.T) {
	for _, continuous := range []bool{false, true} {
		cfg := genSimConfig(5000, continuous) // well past either discipline's saturation
		cfg.DeadlineSec = 0.05
		res := servingsim.RunGeneration(cfg)
		if res.Expired == 0 {
			t.Fatalf("continuous=%v: overloaded run with 50ms deadline expired nothing: %+v", continuous, res)
		}
		if res.Served == 0 {
			t.Fatalf("continuous=%v: deadline run served nothing: %+v", continuous, res)
		}
		free := genSimConfig(5000, continuous)
		if fr := servingsim.RunGeneration(free); fr.Expired != 0 {
			t.Fatalf("continuous=%v: no-deadline run expired %d", continuous, fr.Expired)
		}
	}
}

// TestGenSimTokenBudgetThrottles: a tight KV budget caps concurrency at
// ~1, so at a load the full batch handles comfortably the budgeted system
// falls behind — fewer completions, without dropping requests outright.
func TestGenSimTokenBudgetThrottles(t *testing.T) {
	free := genSimConfig(800, true)
	tight := genSimConfig(800, true)
	tight.TokenBudget = 130 // ~one worst-case request at a time
	fr := servingsim.RunGeneration(free)
	tr := servingsim.RunGeneration(tight)
	if tr.Served == 0 {
		t.Fatal("budgeted run served nothing")
	}
	if fr.Saturated {
		t.Fatalf("unbudgeted run should keep up at this load: %+v", fr)
	}
	if tr.Served >= fr.Served {
		t.Fatalf("tight budget served %d, unbudgeted %d — budget had no effect", tr.Served, fr.Served)
	}
}
