package servingsim_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
	"repro/internal/simclock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from this build's results")

const goldenFile = "testdata/golden.txt"

// The fields the four simulators reported before they became one (sim.go,
// cluster.go, elastic.go, gensim.go) — the golden matrix holds every one of
// them, floats as %x so the last bit counts.
var (
	simFields     = []string{"OfferedRate", "Served", "ServedPerSec", "LatencyAvg", "LatencyMin", "LatencyMax", "Saturated", "FinalQueueLen"}
	clusterFields = []string{"OfferedRate", "Served", "ServedPerSec", "LatencyAvg", "LatencyMax", "LatencyP99", "PerServerServed", "Saturated", "Expired", "ShortP99", "Migrations"}
	elasticFields = []string{"Arrivals", "Served", "Expired", "Lost", "MissRate", "LatencyAvg", "LatencyP99", "ReplicaSeconds", "AvgReplicas", "PeakReplicas", "FinalReplicas", "ScaleUps", "ScaleDowns"}
	genFields     = []string{"OfferedRate", "Served", "ServedPerSec", "TokensPerSec", "LatencyAvg", "LatencyP50", "LatencyP99", "LatencyMax", "Saturated", "FinalQueueLen", "Expired"}
)

// fieldString renders the named fields of a result struct, one "name=value"
// per field: floats in %x (NaN and ±Inf print as such), the rest in %v.
func fieldString(t *testing.T, res any, names []string) string {
	t.Helper()
	v := reflect.ValueOf(res)
	parts := make([]string, len(names))
	for i, name := range names {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("%T has no field %s", res, name)
		}
		if f.Kind() == reflect.Float64 {
			parts[i] = fmt.Sprintf("%s=%x", name, f.Float())
		} else {
			parts[i] = fmt.Sprintf("%s=%v", name, f.Interface())
		}
	}
	return strings.Join(parts, " ")
}

func goldenCost(seqLen, batchSize int) time.Duration {
	work := float64(seqLen) * math.Pow(float64(batchSize), 0.7) * float64(25*time.Microsecond)
	return 300*time.Microsecond + time.Duration(work)
}

// shortSkew is the routing experiments' traffic: mostly short requests, a
// heavy long tail.
func shortSkew(rng *rand.Rand) int {
	if rng.Float64() < 0.9 {
		return 2 + rng.Intn(8)
	}
	return 300 + rng.Intn(200)
}

func goldenStep(ctxs []int) time.Duration {
	d := 40 * time.Microsecond
	for _, c := range ctxs {
		d += 4*time.Microsecond + time.Duration(c)*200*time.Nanosecond
	}
	return d
}

func goldenPrefill(promptLen int) time.Duration {
	return 20*time.Microsecond + time.Duration(promptLen)*time.Microsecond
}

// goldenCases runs one fixed-cost configuration per behaviour an old entry
// point had and returns name → rendered result.
func goldenCases(t *testing.T) map[string]string {
	cost := sched.CostFunc(goldenCost)
	dp := func() sched.Scheduler { return &sched.DPScheduler{Cost: cost, MaxBatch: 20} }
	out := map[string]string{}

	run := func(name string, fields []string, cfg servingsim.Config) {
		res, err := servingsim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = fieldString(t, res, fields)
	}

	single := func(name string, rate float64, seed int64, s sched.Scheduler, edit func(*servingsim.Config)) {
		cfg := servingsim.Config{
			Rate: rate, Warmup: 2, Duration: 8, Seed: seed, LenLo: 2, LenHi: 100,
			NewScheduler: func() sched.Scheduler { return s }, Cost: cost, MaxBatch: 20,
		}
		if edit != nil {
			edit(&cfg)
		}
		run(name, simFields, cfg)
	}
	single("single-hungry", 100, 42, dp(), nil)
	single("single-hungry-one-replica", 50, 77, dp(), nil)
	single("single-hungry-saturated", 3000, 42, &sched.NoBatchScheduler{Cost: cost}, nil)
	single("single-lazy", 50, 42, dp(), func(c *servingsim.Config) {
		c.Strategy, c.LazyTimeout, c.SLO = servingsim.Lazy, 0.050, 1
	})
	single("single-lazy-half-slo-guard", 50, 42, dp(), func(c *servingsim.Config) {
		c.Strategy, c.LazyTimeout, c.SLO = servingsim.Lazy, 0.5, 0.04
	})

	cluster := func(name string, servers int, rate float64, policy serving.BalancePolicy, edit func(*servingsim.Config)) {
		cfg := servingsim.Config{
			Servers: servers, Policy: policy,
			Rate: rate, Warmup: 2, Duration: 8, Seed: 77, LenLo: 2, LenHi: 100,
			NewScheduler: dp, Cost: cost, MaxBatch: 20,
		}
		if edit != nil {
			edit(&cfg)
		}
		run(name, clusterFields, cfg)
	}
	skewed := func(c *servingsim.Config) { c.LenSampler = shortSkew }
	cluster("cluster-one-replica", 1, 50, serving.RoundRobin, nil)
	cluster("cluster-round-robin-skew", 3, 400, serving.RoundRobin, skewed)
	cluster("cluster-least-queue-skew", 3, 400, serving.LeastQueue, skewed)
	cluster("cluster-token-cost-skew", 3, 400, serving.TokenCostRouting, skewed)
	cluster("cluster-deadline-shedding", 2, 8000, serving.LeastQueue, func(c *servingsim.Config) {
		c.DeadlineSec = 0.05
	})
	handoff := func(roles []serving.ReplicaRole) func(*servingsim.Config) {
		return func(c *servingsim.Config) {
			c.LenSampler = func(rng *rand.Rand) int { return 4 + rng.Intn(28) }
			c.Roles, c.GenFrac, c.DecodeLen, c.MigrationDelay = roles, 0.3, 120, 0.0002
		}
	}
	cluster("cluster-roles-handoff", 2, 300, serving.TokenCostRouting,
		handoff([]serving.ReplicaRole{serving.RolePrefill, serving.RoleDecode}))
	cluster("cluster-mixed-handoff", 2, 300, serving.TokenCostRouting, handoff(nil))
	cluster("cluster-clamped-defaults", 0, 50, serving.RoundRobin, func(c *servingsim.Config) {
		c.MaxBatch = 0
	})

	elastic := func(name string, fixed int) {
		cfg := servingsim.Config{
			Rate:     3000,
			RateAt:   simclock.FlashCrowdRate(200, 3000, 8, 2, 6, 2),
			Duration: 30, Seed: 99, Drain: true, LenLo: 2, LenHi: 100, DeadlineSec: 0.5,
			NewScheduler: dp, Cost: cost, MaxBatch: 20, Policy: serving.LeastQueue,
			Servers: fixed,
		}
		if fixed == 0 {
			cfg.Autoscale = &autoscale.Config{Min: 1, Max: 4}
		}
		run(name, elasticFields, cfg)
	}
	elastic("elastic-auto-flash-crowd", 0)
	elastic("elastic-fixed-2-flash-crowd", 2)

	gen := func(name string, rate float64, continuous bool, edit func(*servingsim.GenConfig)) {
		cfg := servingsim.GenConfig{
			Rate: rate, Warmup: 2, Duration: 10, Seed: 99,
			PromptLo: 8, PromptHi: 64, NewLo: 8, NewHi: 64, MaxBatch: 8,
			Continuous: continuous, StepCost: goldenStep, PrefillCost: goldenPrefill,
		}
		if !continuous {
			cfg.Scheduler = &sched.DPScheduler{MaxBatch: 8, Cost: sched.CostFunc(func(l, b int) time.Duration {
				ctxs := make([]int, b)
				for i := range ctxs {
					ctxs[i] = l
				}
				return goldenStep(ctxs) * 36
			})}
		}
		if edit != nil {
			edit(&cfg)
		}
		out[name] = fieldString(t, servingsim.RunGeneration(cfg), genFields)
	}
	deadline := func(c *servingsim.GenConfig) { c.DeadlineSec = 0.05 }
	gen("gen-static", 120, false, nil)
	gen("gen-continuous", 120, true, nil)
	gen("gen-static-deadline", 5000, false, deadline)
	gen("gen-continuous-deadline", 5000, true, deadline)
	gen("gen-continuous-token-budget", 800, true, func(c *servingsim.GenConfig) { c.TokenBudget = 130 })
	gen("gen-continuous-free-prefill", 80, true, func(c *servingsim.GenConfig) { c.PrefillCost = nil })
	return out
}

// TestGoldenMatrix pins every field every simulator entry point reported,
// bit for bit, against values recorded before the simulators were merged.
func TestGoldenMatrix(t *testing.T) {
	got := goldenCases(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s: %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, fields, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = fields
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d cases, the matrix runs %d", goldenFile, len(want), len(got))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s:\n got  %s\n want %s", name, got[name], want[name])
		}
	}
}
