package servingsim

import (
	"math"

	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/simclock"
)

// Replica power states. Only an active replica receives new work; a
// retiring one drains its queue, still billed, and powers off when empty.
const (
	replicaOff = iota
	replicaActive
	replicaRetiring
)

// replica is one simulated GPU and its queue: the serving loop of §5 —
// deadline filter, scheduler over the queue's head window, first batch,
// priced execution — under the hungry or lazy trigger.
type replica struct {
	sim   *simclock.Sim
	cfg   *Config // Cost, RouteCost, MaxBatch and the trigger settings
	sched sched.Scheduler
	role  serving.ReplicaRole
	state int

	mq       []*sched.Request
	busy     bool
	timerSet bool // a lazy-timeout wake-up is pending
	// load is the outstanding priced work (ns of RequestCost), charged at
	// enqueue and refunded at completion or expiry — what TokenCostRouting
	// balances on, mirroring the live Router's per-replica load gauge.
	load float64

	served, expired int64
	// done observes each completed request (the fleet's completion hook).
	done func(s *replica, r *sched.Request)
}

func (s *replica) price(r *sched.Request) float64 {
	return float64(s.cfg.RouteCost.RequestCost(r.Length, 0))
}

func (s *replica) enqueue(r *sched.Request) {
	s.mq = append(s.mq, r)
	s.load += s.price(r)
	s.dispatch()
}

// retireIfDrained powers a retiring replica off once it holds no work — and
// only then, so its replica-seconds cover every job it ever admitted.
func (s *replica) retireIfDrained() {
	if s.state == replicaRetiring && !s.busy && len(s.mq) == 0 {
		s.state = replicaOff
	}
}

// lazyFires is the lazy trigger: a full batch, or the half-SLO guard on the
// oldest queued request.
func (s *replica) lazyFires() bool {
	if len(s.mq) >= s.cfg.MaxBatch {
		return true
	}
	if s.cfg.SLO <= 0 {
		return false
	}
	longest := 0
	for _, r := range s.mq {
		longest = max(longest, r.Length)
	}
	estimate := float64(s.cfg.Cost.BatchCost(sched.Uniform(longest, len(s.mq)))) / 1e9
	return s.sim.Now()-s.mq[0].Arrival+estimate > s.cfg.SLO/2
}

func (s *replica) dispatch() {
	if s.busy {
		return
	}
	s.mq = dropExpired(s.mq, s.sim.Now(), func(r *sched.Request) {
		s.expired++
		s.load -= s.price(r)
	})
	if len(s.mq) == 0 {
		return
	}
	if s.cfg.Strategy == Lazy && !s.lazyFires() {
		if !s.timerSet {
			s.timerSet = true
			s.sim.After(s.cfg.LazyTimeout, func() {
				s.timerSet = false
				s.dispatch()
			})
		}
		return
	}
	view := headWindow(s.mq, s.cfg.MaxBatch)
	batches := s.sched.Schedule(view)
	if len(batches) == 0 {
		return
	}
	b := batches[0]
	s.mq = removeBatch(s.mq, len(view), b)

	s.busy = true
	dur := float64(s.cfg.Cost.BatchCost(sched.Uniform(b.PaddedLen, b.Size()))) / 1e9
	s.sim.After(dur, func() {
		for _, r := range b.Requests {
			s.load -= s.price(r)
			s.done(s, r)
		}
		s.busy = false
		s.dispatch()
		s.retireIfDrained()
	})
}

// dropExpired removes the requests whose deadline has passed — before
// scheduling, never batched, like the live server's admission filter — and
// reports each to drop.
func dropExpired(mq []*sched.Request, now float64, drop func(*sched.Request)) []*sched.Request {
	live := mq[:0]
	for _, r := range mq {
		if r.Expired(now) {
			drop(r)
			continue
		}
		live = append(live, r)
	}
	return live
}

// headWindow copies the bounded FIFO window of the queue the scheduler looks
// at: under overload the backlog is unbounded, and rescheduling all of it on
// every dispatch would be quadratic without changing the outcome (requests
// beyond the window wait their turn anyway).
func headWindow(mq []*sched.Request, maxBatch int) []*sched.Request {
	if window := 16 * maxBatch; len(mq) > window {
		mq = mq[:window]
	}
	return append([]*sched.Request(nil), mq...)
}

// removeBatch takes b's requests out of the queue. They always come from
// the head window, so only that much needs filtering.
func removeBatch(mq []*sched.Request, windowLen int, b sched.Batch) []*sched.Request {
	inBatch := make(map[int64]bool, b.Size())
	for _, r := range b.Requests {
		inBatch[r.ID] = true
	}
	kept := mq[:0]
	for _, r := range mq[:windowLen] {
		if !inBatch[r.ID] {
			kept = append(kept, r)
		}
	}
	return append(kept, mq[windowLen:]...)
}

// window is the measurement window: a completion counts if it falls inside.
type window struct{ lo, hi float64 }

func (w window) holds(now float64) bool { return now >= w.lo && now <= w.hi }

// saturated is the verdict on a run cut at its horizon: the queue holds
// more than a second of offered load (at least 20 requests) and the served
// rate fell clearly short of the offered rate.
func saturated(backlog int, rate, servedPerSec float64) bool {
	return float64(backlog) > math.Max(rate, 20) && servedPerSec < 0.95*rate
}

// deadlineAt is the absolute deadline of a request arriving now (0 = none).
func deadlineAt(now, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return now + sec
}
