package servingsim

import (
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/simclock"
)

// tokenTime prices a batch at a microsecond per token.
var tokenTime = sched.CostFunc(func(seqLen, batchSize int) time.Duration {
	return time.Duration(seqLen*batchSize) * time.Microsecond
})

func TestLazyHalfSLOGuard(t *testing.T) {
	sim := simclock.New()
	sim.Run(10)
	cfg := Config{MaxBatch: 20, SLO: 1.0, Cost: tokenTime}
	s := &replica{sim: sim, cfg: &cfg, mq: []*sched.Request{{ID: 1, Length: 50, Arrival: 9.0}}}
	// Oldest waited 1s ≥ SLO/2 → must fire.
	if !s.lazyFires() {
		t.Fatal("half-SLO guard should fire")
	}
	cfg.SLO = 10
	if s.lazyFires() {
		t.Fatal("guard should not fire well inside the SLO")
	}
	// Full queue fires regardless.
	cfg.MaxBatch = 1
	if !s.lazyFires() {
		t.Fatal("full batch should fire")
	}
}

// TestClusterLoadRefunded drives one simulated replica directly and pins
// the charge/refund bookkeeping the token-cost policy reads: every
// completed request refunds its enqueue charge, an expired request
// refunds on the expiry path, so outstanding load returns to zero once
// the queue empties.
func TestClusterLoadRefunded(t *testing.T) {
	sim := simclock.New()
	s := &replica{
		sim:   sim,
		cfg:   &Config{Cost: tokenTime, RouteCost: sched.TokenCounts, MaxBatch: 4},
		sched: &sched.DPScheduler{Cost: tokenTime, MaxBatch: 4},
		done:  func(*replica, *sched.Request) {},
	}
	// The first enqueue dispatches immediately (replica goes busy); the
	// rest wait in the queue. One of them expires before the replica frees
	// up, exercising the expiry refund path.
	s.enqueue(&sched.Request{ID: 1, Length: 10})
	if s.load == 0 {
		t.Fatal("in-flight request not charged")
	}
	s.enqueue(&sched.Request{ID: 2, Length: 20})
	s.enqueue(&sched.Request{ID: 3, Length: 30, Deadline: 1e-9})
	sim.Run(100)
	if s.expired != 1 {
		t.Fatalf("expired %d requests, want 1", s.expired)
	}
	if len(s.mq) != 0 || s.busy {
		t.Fatalf("replica not drained: queue %d busy %v", len(s.mq), s.busy)
	}
	if s.load != 0 {
		t.Fatalf("outstanding load %v after drain, want 0 (refund leak)", s.load)
	}

	// And a whole-fleet run stays deterministic under the policy.
	cfg := Config{
		Rate: 100, Warmup: 1, Duration: 2, Seed: 7, LenLo: 2, LenHi: 100, DeadlineSec: 0.5,
		NewScheduler: func() sched.Scheduler { return &sched.DPScheduler{Cost: tokenTime, MaxBatch: 4} },
		Cost:         tokenTime, MaxBatch: 4, Servers: 2, Policy: serving.TokenCostRouting,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(cfg)
	if a.Served != b.Served || a.LatencyP99 != b.LatencyP99 {
		t.Fatalf("token-cost sim non-deterministic: %+v vs %+v", a, b)
	}
}
