package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/servingsim"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Batch-scheduler example on requests of lengths 17/18/52/63/77",
		Paper: "optimal scheme packs three batches: 15.24 ms (65.62 resp/s) vs one batch 20.62 ms (48.50 resp/s), +35%%",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Serving throughput, request lengths 2–100",
		Paper: "critical points: PyTorch-NoBatch 99, Turbo-NoBatch 237 (2.39×), Naive 323 (3.26×), DP 402 resp/s (4.06×)",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Serving latency at the four critical points, lengths 2–100",
		Paper: "saturated systems → ∞; DP sustains the highest rate at 24.74 ms avg",
		Run:   runTable4,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Serving throughput, request lengths 5–500 (Tensor Core on)",
		Paper: "PyTorch-NoBatch 60, Turbo-TC-NoBatch 120 (2.0×), Naive 98 (worse than NoBatch!), DP 144 resp/s (2.4×)",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "table5",
		Title: "Serving latency at the four critical points, lengths 5–500",
		Paper: "Naive batching loses to NoBatch from zero-padding; DP lowest latency at equal rates",
		Run:   runTable5,
	})
}

// servingSystem pairs a name with a scheduler and execution-cost model.
type servingSystem struct {
	name  string
	sched sched.Scheduler
	cost  sched.CostModel
}

const servingMaxBatch = 20

// rtx2060 prices every RTX 2060 experiment. One estimator for the package,
// so its memo of cycle-level reduction-kernel simulations is filled once
// (it is safe for concurrent use).
var rtx2060 = perf.NewEstimator(perf.RTX2060())

// The serving experiments share a few expensive pure values — a cost
// dictionary per (profile, maxLen), a saturation probe per (system, length
// range). memoized builds each once; the lock is held across the build so
// concurrent RunExperiment callers wait for it instead of repeating it.
var (
	memoMu sync.Mutex
	memo   = map[string]any{}
)

func memoized[T any](key string, build func() T) T {
	memoMu.Lock()
	defer memoMu.Unlock()
	if v, ok := memo[key]; ok {
		return v.(T)
	}
	v := build()
	memo[key] = v
	return v
}

// buildCost warms up the cached_cost dictionary for a runtime profile
// (the §6.3 warm-up phase: sample the parameter space, interpolate the rest).
func buildCost(p perf.Profile, maxLen int) *sched.CachedCost {
	return memoized(fmt.Sprintf("cost/%s/%d", p.Name, maxLen), func() *sched.CachedCost {
		cfg := model.BertBase()
		stride := maxLen / 12
		if stride < 1 {
			stride = 1
		}
		return sched.BuildCachedCost(func(seqLen, batch int) time.Duration {
			return rtx2060.BatchCost(p, cfg, seqLen, batch)
		}, maxLen, servingMaxBatch, stride)
	})
}

// servingSystems builds the four systems of Fig. 15/16. tc selects the
// Tensor-Core Turbo profile (Fig. 16).
func servingSystems(maxLen int, tc bool) []servingSystem {
	turboProfile := perf.Turbo()
	label := "Turbo"
	if tc {
		turboProfile = perf.TurboTC()
		label = "Turbo-TC"
	}
	turboCost := buildCost(turboProfile, maxLen)
	pyCost := buildCost(perf.PyTorch(), maxLen)
	return []servingSystem{
		{"PyTorch-NoBatch", &sched.NoBatchScheduler{Cost: pyCost}, pyCost},
		{label + "-NoBatch", &sched.NoBatchScheduler{Cost: turboCost}, turboCost},
		{label + "-Naive-Batch", &sched.NaiveScheduler{Cost: turboCost, MaxBatch: servingMaxBatch}, turboCost},
		{label + "-DP-Batch", &sched.DPScheduler{Cost: turboCost, MaxBatch: servingMaxBatch}, turboCost},
	}
}

// simulate runs one single-replica hungry-trigger serving simulation.
func simulate(s servingSystem, rate, warmup, duration float64, lenLo, lenHi int) servingsim.Result {
	res, err := servingsim.Run(servingsim.Config{
		Rate:         rate,
		Warmup:       warmup,
		Duration:     duration,
		Seed:         1234,
		LenLo:        lenLo,
		LenHi:        lenHi,
		NewScheduler: func() sched.Scheduler { return s.sched },
		Cost:         s.cost,
		MaxBatch:     servingMaxBatch,
	})
	if err != nil {
		panic(err) // the configuration is this file's constants
	}
	return res
}

func runSystem(s servingSystem, rate float64, lenLo, lenHi int) servingsim.Result {
	return simulate(s, rate, 2, 10, lenLo, lenHi)
}

// capacity measures a system's saturation throughput (its critical point)
// with a short overload probe. fig15/table4 (and fig16/table5) share the
// same systems, and a probe is the most expensive sim we run.
func capacity(s servingSystem, lenLo, lenHi int) float64 {
	return memoized(fmt.Sprintf("capacity/%s/%d-%d", s.name, lenLo, lenHi), func() float64 {
		return simulate(s, 8000, 1, 4, lenLo, lenHi).ServedPerSec
	})
}

func runFig8(w io.Writer) error {
	cost := buildCost(perf.Turbo(), 500)

	scenario := func(title string, lens []int) {
		fmt.Fprintf(w, "%s — requests %v:\n", title, lens)
		reqs := make([]*sched.Request, len(lens))
		for i, l := range lens {
			reqs[i] = &sched.Request{ID: int64(i), Length: l}
		}
		single := (&sched.NaiveScheduler{Cost: cost}).Schedule(reqs)
		dp := (&sched.DPScheduler{Cost: cost}).Schedule(reqs)
		nobatch := (&sched.NoBatchScheduler{Cost: cost}).Schedule(reqs)

		report := func(name string, batches []sched.Batch) time.Duration {
			total := sched.TotalPredicted(batches)
			fmt.Fprintf(w, "  %-14s %d batches, %.2f ms total, %.2f resp/s\n",
				name, len(batches), float64(total)/1e6, float64(len(lens))/total.Seconds())
			for _, b := range batches {
				var ls []int
				for _, r := range b.Requests {
					ls = append(ls, r.Length)
				}
				fmt.Fprintf(w, "      batch %v padded to %d: %.2f ms\n", ls, b.PaddedLen, float64(b.Predicted)/1e6)
			}
			return total
		}
		singleT := report("single-batch", single)
		report("no-batch", nobatch)
		dpT := report("DP (Alg. 2)", dp)
		fmt.Fprintf(w, "  DP vs single batch: %+.0f%% throughput\n\n",
			100*(float64(singleT)/float64(dpT)-1))
	}

	// The paper's exact example: the DP splits off the short requests
	// (the paper's cost surface yields three batches and +35%; ours two
	// batches and a smaller gain — same effect, different hardware curve).
	scenario("paper's example", []int{17, 18, 52, 63, 77})
	// The same five requests with the length spread stretched to the
	// serving experiment's 5–500 range: zero-padding waste dominates and
	// the DP packs exactly the paper's three-batch scheme.
	scenario("stretched spread", []int{17, 18, 252, 263, 477})
	return nil
}

var fig15Rates = []float64{40, 60, 80, 100, 120, 140, 250, 500, 750, 1000, 1250, 1500}

func runServingFigure(w io.Writer, lenLo, lenHi int, tc bool) error {
	systems := servingSystems(lenHi, tc)
	t := newTable(w)
	header := []interface{}{"req/s"}
	for _, s := range systems {
		header = append(header, s.name)
	}
	t.row(header...)
	for _, rate := range fig15Rates {
		row := []interface{}{rate}
		for _, s := range systems {
			res := runSystem(s, rate, lenLo, lenHi)
			row = append(row, fmt.Sprintf("%.0f", res.ServedPerSec))
		}
		t.row(row...)
	}
	t.flush()

	base := capacity(systems[0], lenLo, lenHi)
	fmt.Fprint(w, "critical points (saturation throughput): ")
	for _, s := range systems {
		c := capacity(s, lenLo, lenHi)
		fmt.Fprintf(w, "%s %.0f resp/s (%.2fx)  ", s.name, c, c/base)
	}
	fmt.Fprintln(w)
	return nil
}

func runFig15(w io.Writer) error { return runServingFigure(w, 2, 100, false) }
func runFig16(w io.Writer) error { return runServingFigure(w, 5, 500, true) }

func runLatencyTable(w io.Writer, lenLo, lenHi int, tc bool) error {
	systems := servingSystems(lenHi, tc)
	// The paper's rows are each system's measured critical point,
	// in increasing order.
	rates := make([]float64, len(systems))
	for i, s := range systems {
		rates[i] = math.Floor(capacity(s, lenLo, lenHi))
	}
	sort.Float64s(rates)
	t := newTable(w)
	header := []interface{}{"req/s"}
	for _, s := range systems {
		header = append(header, s.name)
	}
	t.row(header...)
	for _, rate := range rates {
		row := []interface{}{fmt.Sprintf("%.0f", rate)}
		for _, s := range systems {
			res := runSystem(s, rate, lenLo, lenHi)
			if res.Saturated {
				row = append(row, "+inf")
			} else {
				row = append(row, fmt.Sprintf("%s (%s, %s)",
					ms(res.LatencyAvg), ms(res.LatencyMin), ms(res.LatencyMax)))
			}
		}
		t.row(row...)
	}
	t.flush()
	fmt.Fprintln(w, "cells: avg (min, max) latency in ms; +inf = offered load beyond the system's critical point")
	return nil
}

func runTable4(w io.Writer) error { return runLatencyTable(w, 2, 100, false) }
func runTable5(w io.Writer) error { return runLatencyTable(w, 5, 500, true) }
