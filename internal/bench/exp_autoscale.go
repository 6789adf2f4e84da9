package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/autoscale"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
	"repro/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "autoscale",
		Title: "Elastic autoscaling: hysteresis-controlled fleet vs fixed replica counts on a flash-crowd trace (virtual-clock cluster simulator)",
		Paper: "the paper serves a fixed fleet; this grows §5's serving framework an elastic replica set — scale on the router's load signals, drain-then-retire so no accepted request is ever lost",
		Run:   runAutoscale,
	})
}

// autoscaleParams sizes the experiment.
type autoscaleParams struct {
	min, max int // autoscaler bounds; fixed baselines sweep 1..max

	base, peak float64 // req/s before and at the crowd's top
	crowdAt    float64 // flash-crowd start (virtual seconds)
	rampUp     float64
	hold       float64
	rampDown   float64
	duration   float64 // arrival horizon (virtual seconds)

	deadlineSec  float64
	lenLo, lenHi int
	maxBatch     int
	seed         int64
}

func defaultAutoscaleParams() autoscaleParams {
	return autoscaleParams{
		min: 1, max: 4,
		base: 200, peak: 3000,
		crowdAt: 10, rampUp: 3, hold: 10, rampDown: 3,
		duration:    40,
		deadlineSec: 0.5,
		lenLo:       2, lenHi: 100,
		maxBatch: 20,
		seed:     99,
	}
}

// autoscaleSimCost mirrors the GPU batch-cost surface the scheduler and
// cluster-sim tests price with: fixed launch overhead plus sublinear
// batching gain.
func autoscaleSimCost(seqLen, batchSize int) time.Duration {
	return 300*time.Microsecond +
		time.Duration(float64(seqLen)*math.Pow(float64(batchSize), 0.7)*25)*time.Microsecond
}

// autoscaleCfg builds one elastic-sim condition over the shared flash-crowd
// trace: fixed > 0 pins the fleet, 0 puts the hysteresis controller in the
// loop between min and max.
func autoscaleCfg(p autoscaleParams, fixed int) servingsim.Config {
	cost := sched.CostFunc(autoscaleSimCost)
	cfg := servingsim.Config{
		Servers:     fixed,
		Rate:        p.peak,
		RateAt:      simclock.FlashCrowdRate(p.base, p.peak, p.crowdAt, p.rampUp, p.hold, p.rampDown),
		Duration:    p.duration,
		Drain:       true,
		Seed:        p.seed,
		LenLo:       p.lenLo,
		LenHi:       p.lenHi,
		DeadlineSec: p.deadlineSec,
		NewScheduler: func() sched.Scheduler {
			return &sched.DPScheduler{Cost: cost, MaxBatch: p.maxBatch}
		},
		Cost:     cost,
		MaxBatch: p.maxBatch,
		Policy:   serving.LeastQueue,
	}
	if fixed == 0 {
		cfg.Autoscale = &autoscale.Config{Min: p.min, Max: p.max}
	}
	return cfg
}

func runAutoscale(w io.Writer) error {
	p := defaultAutoscaleParams()
	fmt.Fprintf(w, "autoscale: flash crowd %g→%g req/s at t=%gs (ramp %gs, hold %gs), deadline %gms, horizon %gs, virtual clock\n",
		p.base, p.peak, p.crowdAt, p.rampUp, p.hold, p.deadlineSec*1e3, p.duration)

	auto, err := servingsim.Run(autoscaleCfg(p, 0))
	if err != nil {
		return err
	}
	fixed := make(map[int]servingsim.Result, p.max)
	for r := 1; r <= p.max; r++ {
		res, err := servingsim.Run(autoscaleCfg(p, r))
		if err != nil {
			return err
		}
		fixed[r] = res
	}

	t := newTable(w)
	t.row("fleet", "arrivals", "served", "miss-rate", "p99-ms", "replica-s", "avg", "peak", "ups", "downs", "lost")
	emit := func(name string, res servingsim.Result) {
		t.row(name, res.Arrivals, res.Served,
			fmt.Sprintf("%.4f", res.MissRate),
			fmt.Sprintf("%.1f", res.LatencyP99*1e3),
			fmt.Sprintf("%.1f", res.ReplicaSeconds),
			fmt.Sprintf("%.2f", res.AvgReplicas),
			res.PeakReplicas, res.ScaleUps, res.ScaleDowns, res.Lost)
		RecordMetric("autoscale", "miss_rate/"+name, res.MissRate)
		RecordMetric("autoscale", "p99_ms/"+name, res.LatencyP99*1e3)
		RecordMetric("autoscale", "replica_seconds/"+name, res.ReplicaSeconds)
	}
	autoName := fmt.Sprintf("auto-%d..%d", p.min, p.max)
	emit(autoName, auto)
	for r := 1; r <= p.max; r++ {
		emit(fmt.Sprintf("fixed-%d", r), fixed[r])
	}
	t.flush()
	RecordMetric("autoscale", "avg_replicas", auto.AvgReplicas)
	RecordMetric("autoscale", "peak_replicas", float64(auto.PeakReplicas))
	RecordMetric("autoscale", "scale_ups", float64(auto.ScaleUps))
	RecordMetric("autoscale", "scale_downs", float64(auto.ScaleDowns))

	// Gate 1 — lossless elasticity: every run (elastic and fixed) must
	// reconcile exactly. A lost job across a scale-down would show up here.
	lost := auto.Lost
	for r := 1; r <= p.max; r++ {
		lost += fixed[r].Lost
	}
	if lost != 0 || auto.Arrivals != auto.Served+auto.Expired {
		fmt.Fprintf(w, "  accounting: %d jobs lost → FAIL\n", lost)
	} else {
		fmt.Fprintf(w, "  accounting: arrivals == served + expired on every fleet, 0 lost → PASS\n")
	}
	RecordMetric("autoscale", "jobs_lost", float64(lost))

	// Gate 2 — the controller actually scaled: the crowd forced attach(es)
	// and the post-crowd base load forced drain-then-retire(s), inside
	// bounds.
	if auto.ScaleUps >= 1 && auto.ScaleDowns >= 1 && auto.PeakReplicas <= p.max && auto.FinalReplicas <= auto.PeakReplicas {
		fmt.Fprintf(w, "  elasticity: %d scale-ups, %d scale-downs, peak %d ≤ max %d → PASS\n",
			auto.ScaleUps, auto.ScaleDowns, auto.PeakReplicas, p.max)
	} else {
		fmt.Fprintf(w, "  elasticity: ups %d downs %d peak %d final %d → FAIL\n",
			auto.ScaleUps, auto.ScaleDowns, auto.PeakReplicas, auto.FinalReplicas)
	}

	// Gate 3 — the headline: the autoscaler must Pareto-beat every fixed
	// fleet its average bill could buy (R ≤ ⌈avg replicas⌉): no worse on
	// either deadline-miss rate or p99, strictly better on at least one.
	// (Strict-on-both is unsatisfiable when both fleets reach zero misses —
	// there the win must come from p99.) Fixed fleets above that bound
	// spend more replica-seconds; gate 4 prices that side.
	affordable := int(math.Ceil(auto.AvgReplicas))
	if affordable > p.max {
		affordable = p.max
	}
	headline := "PASS"
	for r := 1; r <= affordable; r++ {
		f := fixed[r]
		noWorse := auto.MissRate <= f.MissRate && auto.LatencyP99 <= f.LatencyP99
		better := auto.MissRate < f.MissRate || auto.LatencyP99 < f.LatencyP99
		if !noWorse || !better {
			headline = "FAIL"
		}
	}
	fmt.Fprintf(w, "  headline: auto (avg %.2f replicas) Pareto-beats every fixed ≤ %d on miss-rate and p99 → %s\n",
		auto.AvgReplicas, affordable, headline)

	// Gate 4 — the economy half: the same deadlines cost a peak-pinned
	// fleet strictly more replica-seconds than the autoscaler billed.
	if auto.ReplicaSeconds < fixed[p.max].ReplicaSeconds {
		fmt.Fprintf(w, "  economy: auto %.1f replica-s vs fixed-%d %.1f → PASS\n",
			auto.ReplicaSeconds, p.max, fixed[p.max].ReplicaSeconds)
	} else {
		fmt.Fprintf(w, "  economy: auto %.1f replica-s vs fixed-%d %.1f → FAIL\n",
			auto.ReplicaSeconds, p.max, fixed[p.max].ReplicaSeconds)
	}
	fmt.Fprintf(w, "  (informational) fixed-%d miss-rate %.4f p99 %.1fms at %.1f replica-s — the capacity ceiling the autoscaler approaches only during the crowd\n",
		p.max, fixed[p.max].MissRate, fixed[p.max].LatencyP99*1e3, fixed[p.max].ReplicaSeconds)
	return nil
}
