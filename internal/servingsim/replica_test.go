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

// TestClusterLoadRefunded drives simulated replicas directly and pins the
// charge/refund bookkeeping the load-reading policies and the scale-down
// victim read: a completed request refunds the charge it holds, an expired
// one refunds on the expiry path together with the charge its decode phase
// was placed with on another replica, so both gauges return to zero once
// the queues empty.
func TestClusterLoadRefunded(t *testing.T) {
	sim := simclock.New()
	newReplica := func() *replica {
		return &replica{
			sim:   sim,
			cfg:   &Config{Cost: tokenTime, MaxBatch: 4},
			sched: &sched.DPScheduler{Cost: tokenTime, MaxBatch: 4},
			done:  func(*replica, *sched.Request) {},
		}
	}
	s, d := newReplica(), newReplica()
	enqueue := func(r *sched.Request, j *job) {
		j.held.add(1)
		j.next.add(1)
		r.Payload = j
		s.enqueue(r)
	}
	// The first enqueue dispatches immediately (replica goes busy); the
	// rest wait in the queue. Two of them expire before the replica frees
	// up, exercising the expiry refund path — one a prefill whose decode
	// was placed on d.
	enqueue(&sched.Request{ID: 1, Length: 10}, &job{held: charge{s, 10}})
	if s.load != 10 || s.inflight != 1 {
		t.Fatalf("routed request not charged: load %d in flight %d", s.load, s.inflight)
	}
	enqueue(&sched.Request{ID: 2, Length: 20}, &job{held: charge{s, 20}})
	enqueue(&sched.Request{ID: 3, Length: 30, Deadline: 1e-9}, &job{held: charge{s, 30}})
	enqueue(&sched.Request{ID: 4, Length: 5, Deadline: 1e-9}, &job{held: charge{s, 5}, next: charge{d, 40}})
	if d.load != 40 || d.inflight != 1 {
		t.Fatalf("decode placement not charged: load %d in flight %d", d.load, d.inflight)
	}
	sim.Run(100)
	if s.expired != 2 {
		t.Fatalf("expired %d requests, want 2", s.expired)
	}
	if len(s.mq) != 0 || s.busy {
		t.Fatalf("replica not drained: queue %d busy %v", len(s.mq), s.busy)
	}
	for name, r := range map[string]*replica{"prefill": s, "decode": d} {
		if r.load != 0 || r.inflight != 0 {
			t.Fatalf("%s replica holds load %d in flight %d after drain, want 0 (refund leak)", name, r.load, r.inflight)
		}
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
