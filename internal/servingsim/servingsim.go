// Package servingsim is the serving stack on a virtual clock: one
// discrete-event model of what internal/serving runs live, priced by a
// latency model instead of executed — the substrate of the paper's serving
// results (§5, §6.3: Figs. 15–16, Tables 4–5) and of the routing, hand-off
// and autoscaling shape checks. The layers are the live ones: a replica
// batches its queue with a sched.Scheduler under the hungry or lazy trigger;
// a balancer spreads arrivals over N replicas by policy and role and hands
// two-phase generations from a prefill to a decode replica; an optional
// autoscale.Controller moves replicas in and out of the routing set. Run
// covers all of it with one Config; RunGeneration models the decode loop
// itself, static against continuous batching. Every run is a pure function
// of its Config — same seed, same bits.
package servingsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/autoscale"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/simclock"
)

// Strategy selects when a replica's batch scheduler fires (§5).
type Strategy int

const (
	// Hungry dispatches whenever the GPU is idle and the queue is
	// non-empty — for high-load serving at full GPU utilisation.
	Hungry Strategy = iota
	// Lazy waits for a full batch or a timeout, and additionally fires
	// early when the oldest request's wait plus the estimated execution
	// time would exceed half the SLO (the paper's reordering guard).
	Lazy
)

// tickSec is the control and billing tick in virtual seconds — the live
// drain meter's window.
const tickSec = 0.25

// Config configures one run of the fleet simulator.
type Config struct {
	// Rate is the offered load in requests/second (Poisson arrivals). With
	// RateAt set the load varies over time and Rate is its upper bound, the
	// thinning envelope of simclock.VaryingArrivals.
	Rate   float64
	RateAt func(t float64) float64
	// Arrivals run for Warmup+Duration virtual seconds; completions inside
	// the last Duration of them are measured.
	Warmup, Duration float64
	Seed             int64
	// Drain runs on past the arrival horizon until every queue is empty, so
	// Arrivals == Served + Expired exactly. Without it the run is cut at the
	// horizon — the saturation probe: what is still queued is the backlog.
	Drain bool

	// Request lengths are uniform in [LenLo, LenHi] (§6.3 uses 2–100 and
	// 5–500) unless LenSampler draws them — how the routing experiments
	// model short-skewed and bimodal traffic.
	LenLo, LenHi int
	LenSampler   func(rng *rand.Rand) int
	// DeadlineSec drops a request still queued this many seconds after
	// arrival instead of scheduling it (0 = none), like the live server's
	// per-job deadline.
	DeadlineSec float64

	// NewScheduler builds one scheduler per replica (schedulers may be
	// stateful, so they are not shared). Cost prices a batch's execution on
	// the device: the simulation's ground truth, which the scheduler's own
	// model may equal or approximate.
	NewScheduler func() sched.Scheduler
	Cost         sched.CostModel
	MaxBatch     int
	Strategy     Strategy
	LazyTimeout  float64 // seconds; Lazy only
	SLO          float64 // seconds; 0 disables Lazy's half-SLO guard

	// Servers is the fleet size (at least 1); Policy spreads requests over
	// it. RouteCost prices a request for TokenCostRouting (nil means
	// sched.TokenCounts).
	Servers   int
	Policy    serving.BalancePolicy
	RouteCost *sched.TokenCost
	// Roles tags each replica prefill/decode/mixed, one per server or none
	// (all mixed), as the live Router takes them: short requests and
	// generation prefills route over prefill∪mixed replicas, decode phases
	// over decode∪mixed, so long decodes stop blocking short work.
	Roles []serving.ReplicaRole
	// GenFrac is the fraction of arrivals that are two-phase generations: a
	// prefill request, then — MigrationDelay seconds of KV hand-off later —
	// a decode request of priced length DecodeLen on a decode-capable
	// replica.
	GenFrac        float64
	DecodeLen      int
	MigrationDelay float64

	// Autoscale, when set, puts the hysteresis controller in the loop: the
	// fleet starts at its Min and moves between Min and Max (Servers is
	// ignored). Scale-up activates a warm spare at once; scale-down is
	// drain-then-retire, the live RemoveReplica contract.
	Autoscale *autoscale.Config
}

// Result reports one run.
type Result struct {
	OfferedRate float64
	// Arrivals entered the fleet; Served completed inside the measurement
	// window; Expired were dropped past their deadline before scheduling.
	// Lost is Arrivals − Served − Expired: zero after a Drain run, and what
	// the window left out of a cut one.
	Arrivals, Served, Expired, Lost int64
	MissRate                        float64 // Expired / Arrivals
	ServedPerSec                    float64
	// Latency is completion − arrival in seconds over the measured
	// completions (NaN when there were none). ShortP99 is the p99 of the
	// non-generation requests alone, the interference metric disaggregation
	// targets.
	LatencyAvg, LatencyMin, LatencyMax, LatencyP99, ShortP99 float64
	// PerServerServed shows balance quality; Migrations counts generation
	// hand-offs that changed replica.
	PerServerServed []int64
	Migrations      int64
	// Saturated marks a cut run whose queue diverged: offered load beyond
	// the critical point, tail latency unbounded (+∞ in Tables 4–5).
	Saturated     bool
	FinalQueueLen int

	// ReplicaSeconds integrates the powered-on replica count (active and
	// still draining) over the run, the capacity bill; AvgReplicas divides
	// it by the arrival horizon.
	ReplicaSeconds, AvgReplicas float64
	PeakReplicas, FinalReplicas int
	ScaleUps, ScaleDowns        int64
}

// check rejects configurations that cannot produce a meaningful run.
func (cfg *Config) check() error {
	switch {
	case cfg.NewScheduler == nil:
		return errors.New("servingsim: nil NewScheduler")
	case cfg.Cost == nil:
		return errors.New("servingsim: nil Cost")
	case !(cfg.Duration > 0):
		return fmt.Errorf("servingsim: Duration %v must be positive", cfg.Duration)
	case cfg.Strategy == Lazy && !(cfg.LazyTimeout > 0):
		return fmt.Errorf("servingsim: Lazy needs a positive LazyTimeout, got %v", cfg.LazyTimeout)
	case !(cfg.GenFrac >= 0 && cfg.GenFrac <= 1):
		return fmt.Errorf("servingsim: GenFrac %v outside [0, 1]", cfg.GenFrac)
	}
	return nil
}

// The phases of a two-phase generation, carried in sched.Request.Payload;
// a short (classify) request carries none.
type genPhase int

const (
	genPrefill genPhase = iota + 1
	genDecode
)

// fleet is the balancer: the replicas and the round-robin cursor (shared by
// arrivals and hand-offs).
type fleet struct {
	policy   serving.BalancePolicy
	replicas []*replica
	next     int
}

// pick routes one request: the policy's choice among the active replicas
// whose role is not avoid — RoleDecode for short requests and prefills,
// RolePrefill for decode phases — or among all active ones when none fits.
func (f *fleet) pick(avoid serving.ReplicaRole) *replica {
	var active, cands []*replica
	for _, s := range f.replicas {
		if s.state == replicaActive {
			active = append(active, s)
			if s.role != avoid {
				cands = append(cands, s)
			}
		}
	}
	if len(cands) == 0 {
		cands = active
	}
	best := cands[0]
	switch f.policy {
	case serving.LeastQueue:
		for _, s := range cands[1:] {
			if len(s.mq) < len(best.mq) {
				best = s
			}
		}
	case serving.TokenCostRouting:
		for _, s := range cands[1:] {
			if s.load < best.load {
				best = s
			}
		}
	default:
		best = cands[f.next%len(cands)]
		f.next++
	}
	return best
}

// Run replays Poisson arrivals through a balancer over a fleet of simulated
// replicas on one virtual clock.
func Run(cfg Config) (Result, error) {
	if err := cfg.check(); err != nil {
		return Result{}, err
	}
	cfg.MaxBatch, cfg.DecodeLen = max(cfg.MaxBatch, 1), max(cfg.DecodeLen, 1)
	if cfg.RouteCost == nil {
		cfg.RouteCost = sched.TokenCounts
	}
	size := max(cfg.Servers, 1)
	start := size
	var ctrl *autoscale.Controller
	if cfg.Autoscale != nil {
		c, err := autoscale.New(*cfg.Autoscale)
		if err != nil {
			return Result{}, err
		}
		ctrl, size, start = c, c.Config().Max, c.Config().Min
	}
	if err := serving.CheckRoles(cfg.Roles, size); err != nil {
		return Result{}, err
	}

	sim := simclock.New()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	horizon := cfg.Warmup + cfg.Duration
	// A cut run stops and stops measuring at the horizon. A drained one
	// measures everything and runs until its event queue is empty (the tick
	// stops itself); the limit is a generous backstop.
	measured, stop := window{cfg.Warmup, horizon}, horizon
	if cfg.Drain {
		measured.hi, stop = math.Inf(1), horizon*4+600
	}
	all, short := simclock.NewLatencyStats(), simclock.NewLatencyStats()
	res := Result{OfferedRate: cfg.Rate, PerServerServed: make([]int64, size)}

	f := &fleet{policy: cfg.Policy, replicas: make([]*replica, size)}
	// done observes each completed request: a generation's prefill hands
	// off to a decode-capable replica after the migration delay, anything
	// else is a response and is measured.
	done := func(s *replica, r *sched.Request) {
		if r.Payload == genPrefill {
			target := f.pick(serving.RolePrefill)
			if target != s {
				res.Migrations++
			}
			dec := &sched.Request{ID: r.ID, Length: cfg.DecodeLen, Arrival: r.Arrival, Deadline: r.Deadline, Payload: genDecode}
			sim.After(cfg.MigrationDelay, func() { target.enqueue(dec) })
			return
		}
		if now := sim.Now(); measured.holds(now) {
			all.Add(now - r.Arrival)
			s.served++
			if r.Payload == nil {
				short.Add(now - r.Arrival)
			}
		}
	}
	for i := range f.replicas {
		s := &replica{sim: sim, cfg: &cfg, sched: cfg.NewScheduler(), done: done}
		if i < start {
			s.state = replicaActive
		}
		if len(cfg.Roles) > 0 {
			s.role = cfg.Roles[i]
		}
		f.replicas[i] = s
	}

	scale := func(d autoscale.Decision) {
		switch d {
		case autoscale.ScaleUp:
			for _, s := range f.replicas {
				if s.state == replicaOff {
					s.state = replicaActive
					res.ScaleUps++
					return
				}
			}
		case autoscale.ScaleDown:
			// Least-loaded active victim, exactly like RemoveReplica (the
			// controller only shrinks a fleet above its Min ≥ 1, so there is
			// one). It leaves the routing set now and powers off once drained.
			var victim *replica
			for _, s := range f.replicas {
				if s.state == replicaActive && (victim == nil || s.load < victim.load) {
					victim = s
				}
			}
			victim.state = replicaRetiring
			victim.retireIfDrained()
			res.ScaleDowns++
		}
	}

	// Control + billing tick. Billing first (the fleet as it stood this
	// tick), then the controller's decision for the next one. Ticking stops
	// once arrivals are over and the whole fleet is drained.
	var lastCompleted int64
	firstTick := true
	var tick func()
	tick = func() {
		on, active, idle := 0, 0, true
		var depth int64
		for _, s := range f.replicas {
			if s.state != replicaOff {
				on++
			}
			if s.state == replicaActive {
				active++
				depth += int64(len(s.mq))
			}
			if s.busy || len(s.mq) > 0 {
				idle = false
			}
		}
		res.ReplicaSeconds += float64(on) * tickSec
		res.PeakReplicas = max(res.PeakReplicas, on)
		if ctrl != nil {
			completed := all.Count
			scale(ctrl.Tick(autoscale.Signals{
				Replicas:      active,
				QueueDepth:    depth,
				DrainRate:     float64(completed-lastCompleted) / tickSec,
				DrainMeasured: !firstTick,
			}))
			lastCompleted, firstTick = completed, false
		}
		if sim.Now() >= horizon && idle {
			return
		}
		sim.After(tickSec, tick)
	}
	sim.After(tickSec, tick)

	arrive := func(i int64) {
		res.Arrivals++
		r := &sched.Request{ID: i + 1, Length: cfg.LenLo, Arrival: sim.Now(), Deadline: deadlineAt(sim.Now(), cfg.DeadlineSec)}
		if cfg.LenSampler != nil {
			r.Length = cfg.LenSampler(rng)
		} else if cfg.LenHi > cfg.LenLo {
			r.Length += rng.Intn(cfg.LenHi - cfg.LenLo + 1)
		}
		if cfg.GenFrac > 0 && rng.Float64() < cfg.GenFrac {
			r.Payload = genPrefill
		}
		f.pick(serving.RoleDecode).enqueue(r)
	}
	if cfg.RateAt != nil {
		sim.VaryingArrivals(cfg.RateAt, cfg.Rate, cfg.Seed, horizon, arrive)
	} else {
		sim.PoissonArrivals(cfg.Rate, cfg.Seed, horizon, arrive)
	}

	sim.Run(stop)

	for i, s := range f.replicas {
		res.PerServerServed[i] = s.served
		res.Expired += s.expired
		res.FinalQueueLen += len(s.mq)
		if s.state != replicaOff {
			res.FinalReplicas++
		}
	}
	res.Served = all.Count
	res.Lost = res.Arrivals - res.Served - res.Expired
	if res.Arrivals > 0 {
		res.MissRate = float64(res.Expired) / float64(res.Arrivals)
	}
	res.ServedPerSec = float64(res.Served) / cfg.Duration
	res.LatencyAvg, res.LatencyMin, res.LatencyMax = all.Avg(), all.Min, all.Max
	if res.Served == 0 {
		res.LatencyMin, res.LatencyMax = math.NaN(), math.NaN()
	}
	res.LatencyP99, res.ShortP99 = all.Percentile(0.99), short.Percentile(0.99)
	res.Saturated = saturated(res.FinalQueueLen, cfg.Rate, res.ServedPerSec)
	res.AvgReplicas = res.ReplicaSeconds / horizon
	return res, nil
}
