// Capacity planning: use the GPU latency model and the DP scheduler's cost
// dictionary to answer the operator questions §5 raises — what max batch
// size fits an SLO, what throughput one GPU sustains for a length
// distribution, how many GPUs a target load needs, and (new in PR 9)
// whether an autoscaled fleet or a fixed one serves a flash crowd better
// for the same replica-seconds bill.
package main

import (
	"fmt"
	"time"

	turbo "repro"
	"repro/internal/autoscale"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
	"repro/internal/simclock"
)

func main() {
	est := turbo.NewRTX2060Estimator()
	profile := turbo.TurboProfile()
	cfg := turbo.BertBase()

	// The §6.3 warm-up phase over the latency model.
	cost := turbo.WarmupCost(func(seqLen, batch int) time.Duration {
		return est.BatchCost(profile, cfg, seqLen, batch)
	}, 500, 32, 25)

	fmt.Println("BERT-base on the modelled RTX 2060, request lengths 2-100")
	fmt.Println()

	// 1. Largest batch size whose padded execution fits the SLO.
	fmt.Println("max batch size within SLO (padded length 100):")
	for _, slo := range []time.Duration{10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
		best := 0
		for b := 1; b <= 32; b++ {
			if cost.BatchCost(100, b) <= slo {
				best = b
			}
		}
		fmt.Printf("  SLO %6v → batch %d (cost %v)\n", slo, best, cost.BatchCost(100, max(best, 1)))
	}
	fmt.Println()

	// 2. Single-GPU sustainable throughput per batching policy, estimated
	//    from the cost surface at the mean length.
	fmt.Println("estimated single-GPU capacity at mean length 51:")
	for _, b := range []int{1, 4, 8, 16, 20} {
		perBatch := cost.BatchCost(51, b)
		fmt.Printf("  batch %2d → %6.0f resp/s (batch cost %v)\n",
			b, float64(b)/perBatch.Seconds(), perBatch)
	}
	fmt.Println()

	// 3. GPUs needed for a target offered load with batch 16.
	perBatch := cost.BatchCost(51, 16)
	capacity := 16 / perBatch.Seconds()
	fmt.Println("GPUs needed at batch 16 with 30% headroom:")
	for _, target := range []float64{500, 2000, 10000} {
		gpus := int(target/(capacity*0.7)) + 1
		fmt.Printf("  %6.0f req/s → %d GPU(s)\n", target, gpus)
	}
	fmt.Println()

	// 4. Static provisioning vs the autoscaler on a flash crowd. The steady
	//    sizing above answers "how many GPUs for THIS load" — but a flash
	//    crowd has two loads. Replay the same non-homogeneous trace (quiet
	//    base, 8× crowd) through the virtual-clock cluster simulator, priced
	//    by the same cost dictionary, with fixed fleets of 1..4 GPUs and
	//    with the hysteresis autoscaler sweeping different bounds: the
	//    numbers to compare are the deadline-miss rate (the SLO side) and
	//    the replica-seconds bill (the capacity side).
	base, peak := 0.3*capacity, 2.5*capacity
	elastic := func(fixed, min, max int) servingsim.Config {
		cfg := servingsim.Config{
			Servers:     fixed,
			Rate:        peak,
			RateAt:      simclock.FlashCrowdRate(base, peak, 8, 2, 8, 2),
			Duration:    30,
			Drain:       true,
			Seed:        42,
			LenLo:       2,
			LenHi:       100,
			DeadlineSec: 0.5,
			NewScheduler: func() sched.Scheduler {
				return &sched.DPScheduler{Cost: cost, MaxBatch: 16}
			},
			Cost:     cost,
			MaxBatch: 16,
			Policy:   serving.LeastQueue,
		}
		if fixed == 0 {
			cfg.Autoscale = &autoscale.Config{Min: min, Max: max}
		}
		return cfg
	}
	fmt.Printf("flash crowd %.0f→%.0f req/s, deadline 500ms, 30 virtual seconds:\n", base, peak)
	fmt.Println("  fleet      miss-rate  p99-ms  replica-s  avg-GPUs")
	show := func(name string, res servingsim.Result) {
		fmt.Printf("  %-9s  %9.4f  %6.1f  %9.1f  %8.2f\n",
			name, res.MissRate, res.LatencyP99*1e3, res.ReplicaSeconds, res.AvgReplicas)
	}
	for gpus := 1; gpus <= 4; gpus++ {
		res, err := servingsim.Run(elastic(gpus, 0, 0))
		if err != nil {
			panic(err)
		}
		show(fmt.Sprintf("fixed-%d", gpus), res)
	}
	for _, bounds := range [][2]int{{1, 2}, {1, 3}, {1, 4}, {2, 4}} {
		res, err := servingsim.Run(elastic(0, bounds[0], bounds[1]))
		if err != nil {
			panic(err)
		}
		show(fmt.Sprintf("auto-%d..%d", bounds[0], bounds[1]), res)
	}
	fmt.Println("  (an autoscaler whose Max covers the crowd hits fixed-peak misses at a fraction of the bill;")
	fmt.Println("   bounds that cap below the crowd trade misses for replica-seconds like the fixed fleet they cap at)")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
