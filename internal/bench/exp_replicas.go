package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
)

func init() {
	register(Experiment{
		ID:    "replica-routing",
		Title: "Multi-replica routing policies under skewed variable-length traffic (cluster simulator)",
		Paper: "§5 assumes an upper-level Nexus-style balancer above the single-GPU servers; cost-aware routing is the missing layer above iteration-level batching",
		Run:   runReplicaRouting,
	})
}

// The routing experiment's fleet and traffic: short requests with a tail of
// long ones, offered at routingUtil × the fleet's unbatched capacity.
const (
	routingReplicas                = 2
	routingShortLo, routingShortHi = 4, 12
	routingLongLen                 = 96
	routingLongFrac                = 0.10
	routingUtil                    = 0.75
	routingMaxBatch                = 8
	routingSeed                    = 99
)

// routingDist names a traffic shape and draws request lengths from it.
type routingDist struct {
	name string
	draw func(rng *rand.Rand) int
}

var routingDists = []routingDist{
	{"short-skewed", func(rng *rand.Rand) int {
		if rng.Float64() < routingLongFrac {
			return routingLongLen
		}
		return routingShortLo + rng.Intn(routingShortHi-routingShortLo+1)
	}},
	{"bimodal", func(rng *rand.Rand) int {
		if rng.Intn(2) == 0 {
			return routingShortLo + 4
		}
		return routingLongLen
	}},
}

// fitRouteCost is the router's warm-up on the device model: price uniform
// (len, batch) BERT-base encodes on the RTX 2060 estimator — the cost
// surface of fig15/16 — and fit the three-term token cost, the SAME
// RouteCostModel the live Router's token-cost policy prices admissions with.
func fitRouteCost(maxLen int) *sched.TokenCost {
	cfg, p := model.BertBase(), perf.Turbo()
	return sched.FitTokenCost(func(seqLen, batch int) time.Duration {
		return rtx2060.BatchCost(p, cfg, seqLen, batch)
	}, maxLen, 4, maxLen/4)
}

// offeredRate converts a utilisation of `servers` replicas into req/s for
// requests whose mean route cost is meanCostNs.
func offeredRate(util float64, servers int, meanCostNs float64) float64 {
	return util * float64(servers) / (meanCostNs / 1e9)
}

func runReplicaRouting(w io.Writer) error {
	fit := fitRouteCost(routingLongLen)
	fmt.Fprintf(w, "cluster simulator (virtual clock): %d replicas of BERT-base priced on the RTX 2060 model, DP batches ≤ %d, util %.0f%%, route cost fixed=%.0fns perTok=%.0fns perTok²=%.2fns\n",
		routingReplicas, routingMaxBatch, 100*routingUtil, fit.Fixed, fit.PerToken, fit.PerSqToken)
	fmt.Fprintln(w, "(live router latency, overhead and balance are cmd/turbo-ledger's fleet-faq workload: router.overhead_us, router.load_imbalance)")

	policies := []serving.BalancePolicy{serving.RoundRobin, serving.LeastQueue, serving.TokenCostRouting}
	for _, dist := range routingDists {
		// Offered load: the distribution's mean route cost over a fixed
		// sample, so each shape runs at the same utilisation.
		rng := rand.New(rand.NewSource(routingSeed))
		var meanCost float64
		const samples = 4096
		for i := 0; i < samples; i++ {
			meanCost += float64(fit.RequestCost(dist.draw(rng), 0)) / samples
		}
		rate := offeredRate(routingUtil, routingReplicas, meanCost)

		t := newTable(w)
		t.row("dist="+dist.name, "offered/s", "served/s", "avg-ms", "p99-ms", "per-replica served")
		p99 := map[serving.BalancePolicy]float64{}
		for _, policy := range policies {
			res, err := servingsim.Run(servingsim.Config{
				Servers:    routingReplicas,
				Policy:     policy,
				Rate:       rate,
				Warmup:     2,
				Duration:   8,
				Seed:       routingSeed,
				LenSampler: dist.draw,
				NewScheduler: func() sched.Scheduler {
					return &sched.DPScheduler{Cost: fit, MaxBatch: routingMaxBatch}
				},
				Cost:      fit,
				RouteCost: fit,
				MaxBatch:  routingMaxBatch,
			})
			if err != nil {
				return err
			}
			p99[policy] = res.LatencyP99
			t.row(policy.String(), fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", res.ServedPerSec),
				ms(res.LatencyAvg), ms(res.LatencyP99), fmt.Sprint(res.PerServerServed))
			RecordMetric("replica-routing", fmt.Sprintf("sim/%s/p99_ms/%s", dist.name, policy), res.LatencyP99*1e3)
		}
		t.flush()
		tc, rr := p99[serving.TokenCostRouting], p99[serving.RoundRobin]
		if dist.name != "short-skewed" {
			fmt.Fprintf(w, "  %s: token-cost p99 %.2fms vs round-robin %.2fms\n", dist.name, tc*1e3, rr*1e3)
			continue
		}
		// The acceptance claim: cost-aware routing does not lose to
		// round-robin on tail latency where length skew misprices queue
		// slots the worst. Virtual clock, so the verdict carries no band.
		verdict := "PASS"
		if tc > rr {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  sim shape: %s token-cost p99 %.2fms vs round-robin %.2fms → %s\n", dist.name, tc*1e3, rr*1e3, verdict)
	}
	return nil
}
