package servingsim

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
)

// GenStepCost prices one decode iteration over a batch whose rows attend
// the given context lengths (self-attention cache plus cross-attention
// width). Ragged lengths model continuous batching; a static padded batch
// passes the padded length for every row.
type GenStepCost func(ctxLens []int) time.Duration

// GenConfig configures one generation-serving simulation run.
type GenConfig struct {
	// Rate is the offered load (requests/second, Poisson arrivals).
	Rate float64
	// Warmup seconds are excluded from measurement; Duration seconds are
	// measured after that.
	Warmup, Duration float64
	Seed             int64

	// Prompt lengths are uniform in [PromptLo, PromptHi]; generation
	// lengths uniform in [NewLo, NewHi] — the variable-length generation
	// workload.
	PromptLo, PromptHi int
	NewLo, NewHi       int

	MaxBatch    int
	TokenBudget int // continuous mode only; 0 = unlimited

	// DeadlineSec drops a request still waiting for admission this many
	// seconds after arrival instead of scheduling it (0 = no deadlines) —
	// the simulator analogue of the serving layer's per-job deadline.
	DeadlineSec float64

	// Continuous selects iteration-level batching via
	// sched.ContinuousScheduler; otherwise Scheduler partitions the queue
	// into static request-level batches that run start to finish.
	Continuous bool
	Scheduler  sched.Scheduler

	// StepCost prices one decode iteration; PrefillCost prices encoding a
	// prompt (nil = free).
	StepCost    GenStepCost
	PrefillCost func(promptLen int) time.Duration
}

// GenResult reports one run's generation-serving metrics.
type GenResult struct {
	OfferedRate  float64
	Served       int64
	ServedPerSec float64
	TokensPerSec float64
	// Latency is completion − arrival in seconds over the measurement
	// window; P99 is the paper-style tail metric continuous batching is
	// built to improve.
	LatencyAvg, LatencyP50, LatencyP99, LatencyMax float64
	Saturated                                      bool
	FinalQueueLen                                  int
	// Expired counts requests dropped past their deadline before
	// scheduling (only non-zero when DeadlineSec is set).
	Expired int64
}

// genReq is one simulated generation request.
type genReq struct {
	id        int64
	arrival   float64
	promptLen int
	newToks   int // sampled generation length (hidden from the scheduler)
	generated int
}

// genRun is what the two disciplines share: the clock, the arrival and
// length streams, the measurement window and the counters.
type genRun struct {
	cfg       GenConfig
	sim       *simclock.Sim
	rng       *rand.Rand
	measured  window
	latency   *simclock.LatencyStats
	tokensOut int64
	expired   int64
}

// arrivals feeds each sampled request, with its absolute deadline, to fn.
func (g *genRun) arrivals(fn func(r *genReq, deadline float64)) {
	cfg := &g.cfg
	g.sim.PoissonArrivals(cfg.Rate, cfg.Seed, g.measured.hi, func(i int64) {
		r := &genReq{id: i + 1, arrival: g.sim.Now(), promptLen: cfg.PromptLo, newToks: cfg.NewLo}
		if cfg.PromptHi > cfg.PromptLo {
			r.promptLen += g.rng.Intn(cfg.PromptHi - cfg.PromptLo + 1)
		}
		if cfg.NewHi > cfg.NewLo {
			r.newToks += g.rng.Intn(cfg.NewHi - cfg.NewLo + 1)
		}
		r.newToks = max(r.newToks, 1)
		fn(r, deadlineAt(r.arrival, cfg.DeadlineSec))
	})
}

func (g *genRun) complete(r *genReq) {
	if now := g.sim.Now(); g.measured.holds(now) {
		g.latency.Add(now - r.arrival)
		g.tokensOut += int64(r.newToks)
	}
}

// RunGeneration replays Poisson arrivals of variable-length generation
// requests through either static request-level batching (admit only
// between whole batches; every member padded to the batch maximum and held
// until the longest one finishes) or continuous iteration-level batching
// (admit/evict between decode steps, ragged attention, per-request
// completion).
func RunGeneration(cfg GenConfig) GenResult {
	cfg.MaxBatch = max(cfg.MaxBatch, 1)
	if cfg.PrefillCost == nil {
		cfg.PrefillCost = func(int) time.Duration { return 0 }
	}
	g := &genRun{
		cfg:      cfg,
		sim:      simclock.New(),
		rng:      rand.New(rand.NewSource(cfg.Seed + 2)),
		measured: window{cfg.Warmup, cfg.Warmup + cfg.Duration},
		latency:  simclock.NewLatencyStats(),
	}
	wire := g.static
	if cfg.Continuous {
		wire = g.continuous
	}
	queueLen := wire()
	g.sim.Run(g.measured.hi)

	lat := g.latency
	res := GenResult{
		OfferedRate:   cfg.Rate,
		Served:        lat.Count,
		ServedPerSec:  float64(lat.Count) / cfg.Duration,
		TokensPerSec:  float64(g.tokensOut) / cfg.Duration,
		LatencyAvg:    math.NaN(),
		LatencyP50:    lat.Percentile(0.50),
		LatencyP99:    lat.Percentile(0.99),
		LatencyMax:    math.NaN(),
		FinalQueueLen: queueLen(),
		Expired:       g.expired,
	}
	if lat.Count > 0 {
		// The mean is summed in ascending order, not arrival order: the
		// recorded results' last bit depends on it.
		var sum float64
		for _, v := range lat.Sorted() {
			sum += v
		}
		res.LatencyAvg, res.LatencyMax = sum/float64(lat.Count), lat.Max
	}
	res.Saturated = saturated(res.FinalQueueLen, cfg.Rate, res.ServedPerSec)
	return res
}

// static wires the static request-level path: the batch scheduler
// partitions the waiting queue by total (prompt+generation) length; a
// batch decodes with every row padded to the batch maximum and retires
// only when its longest member finishes, which is exactly the straggler
// and padding waste continuous batching removes. It returns the queue-length
// probe.
func (g *genRun) static() func() int {
	cfg := &g.cfg
	var (
		mq   []*sched.Request // Payload is the *genReq
		busy bool
	)
	var dispatch func()
	dispatch = func() {
		if busy {
			return
		}
		mq = dropExpired(mq, g.sim.Now(), func(*sched.Request) { g.expired++ })
		if len(mq) == 0 {
			return
		}
		view := headWindow(mq, cfg.MaxBatch)
		batches := cfg.Scheduler.Schedule(view)
		if len(batches) == 0 {
			return
		}
		// Run the batch holding the oldest waiting request. Always taking
		// batches[0] (the shortest-length batch, the way the DP orders its
		// plan) would turn the baseline into shortest-job-first and starve
		// long requests under sustained load — that would inflate the
		// static p99 and flatter the continuous side of the comparison.
		b := batches[0]
		oldest := math.Inf(1)
		for _, cand := range batches {
			for _, r := range cand.Requests {
				if r.Arrival < oldest {
					oldest, b = r.Arrival, cand
				}
			}
		}
		mq = removeBatch(mq, len(view), b)

		busy = true
		maxPrompt, maxNew := 0, 0
		var cost time.Duration
		for _, r := range b.Requests {
			q := r.Payload.(*genReq)
			maxPrompt, maxNew = max(maxPrompt, q.promptLen), max(maxNew, q.newToks)
			cost += cfg.PrefillCost(q.promptLen)
		}
		// Padded decode: every row attends maxPrompt+t at step t, for the
		// full maxNew steps.
		ctxs := make([]int, b.Size())
		for t := 1; t <= maxNew; t++ {
			for i := range ctxs {
				ctxs[i] = maxPrompt + t
			}
			cost += cfg.StepCost(ctxs)
		}
		g.sim.After(float64(cost)/1e9, func() {
			for _, r := range b.Requests {
				g.complete(r.Payload.(*genReq))
			}
			busy = false
			dispatch()
		})
	}

	g.arrivals(func(r *genReq, deadline float64) {
		mq = append(mq, &sched.Request{ID: r.id, Length: r.promptLen + r.newToks, Arrival: r.arrival, Deadline: deadline, Payload: r})
		dispatch()
	})
	return func() int { return len(mq) }
}

// continuous wires iteration-level batching through the real
// ContinuousScheduler: admission between decode steps, ragged per-row
// contexts, eviction the moment a request finishes. It returns the
// queue-length probe.
func (g *genRun) continuous() func() int {
	cfg := &g.cfg
	cs := sched.NewContinuousScheduler(cfg.MaxBatch, cfg.TokenBudget)
	// The admission hook drops expired queue heads exactly like the live
	// genDispatcher does.
	cs.Cancelled = func(r *sched.GenRequest) bool {
		if r.Expired(g.sim.Now()) {
			g.expired++
			return true
		}
		return false
	}
	var (
		live []*genReq
		busy bool
	)
	var loop func()
	loop = func() {
		if busy {
			return
		}
		var cost time.Duration
		for _, r := range cs.Admit() {
			q := r.Payload.(*genReq)
			cost += cfg.PrefillCost(q.promptLen)
			live = append(live, q)
		}
		if len(live) == 0 {
			return
		}
		ctxs := make([]int, len(live))
		for i, r := range live {
			ctxs[i] = r.promptLen + r.generated + 1
		}
		cost += cfg.StepCost(ctxs)
		busy = true
		g.sim.After(float64(cost)/1e9, func() {
			busy = false
			kept := live[:0]
			for _, r := range live {
				r.generated++
				if r.generated >= r.newToks {
					cs.Evict(r.id)
					g.complete(r)
					continue
				}
				kept = append(kept, r)
			}
			live = kept
			loop()
		})
	}

	g.arrivals(func(r *genReq, deadline float64) {
		cs.Enqueue(&sched.GenRequest{ID: r.id, PromptLen: r.promptLen, MaxNew: r.newToks, Arrival: r.arrival, Deadline: deadline, Payload: r})
		loop()
	})
	return cs.QueueLen
}
