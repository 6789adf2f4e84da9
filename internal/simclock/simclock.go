// Package simclock is a deterministic discrete-event simulation core with a
// virtual clock: the substrate for the serving-throughput experiments
// (Figs. 15–16, Tables 4–5), where thousands of Poisson-arriving requests
// per second must be replayed reproducibly and far faster than real time.
package simclock

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
)

// event is one scheduled callback.
type event struct {
	at  float64
	seq int64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) {
	*h = append(*h, x.(*event))
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulator. Zero value is not usable; call New.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap
}

// New returns an empty simulation at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics — it is a logic bug in the model.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic("simclock: event scheduled in the past")
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		panic("simclock: negative delay")
	}
	s.At(s.now+d, fn)
}

// Run processes events in time order until the queue empties or the clock
// passes until. Events scheduled exactly at until still fire.
func (s *Sim) Run(until float64) {
	for s.events.Len() > 0 {
		e := s.events[0]
		if e.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = e.at
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// PoissonArrivals schedules fn for each arrival of a Poisson process with
// the given rate (events/second), from the current time until the limit.
// The sequence is fully determined by seed.
func (s *Sim) PoissonArrivals(rate float64, seed int64, until float64, fn func(i int64)) {
	if rate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	t := s.now
	var i int64
	for {
		t += rng.ExpFloat64() / rate
		if t > until {
			return
		}
		idx := i
		s.At(t, func() { fn(idx) })
		i++
	}
}

// VaryingArrivals schedules fn for each arrival of a NON-homogeneous
// Poisson process whose instantaneous rate is rate(t) events/second, from
// the current time until the limit — the diurnal and flash-crowd traces
// the autoscaler is validated against. Implemented by thinning (Lewis &
// Shedler): candidates arrive at the constant maxRate and are kept with
// probability rate(t)/maxRate, so the sequence is fully determined by
// seed. rate(t) exceeding maxRate is a modelling bug and panics.
func (s *Sim) VaryingArrivals(rate func(t float64) float64, maxRate float64, seed int64, until float64, fn func(i int64)) {
	if maxRate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	t := s.now
	var i int64
	for {
		t += rng.ExpFloat64() / maxRate
		if t > until {
			return
		}
		r := rate(t)
		if r > maxRate {
			panic("simclock: rate(t) exceeds maxRate — thinning bound violated")
		}
		if r > 0 && rng.Float64()*maxRate < r {
			idx := i
			s.At(t, func() { fn(idx) })
			i++
		}
	}
}

// FlashCrowdRate returns a flash-crowd rate curve for VaryingArrivals:
// steady base load, a linear ramp to peak over rampUp seconds starting at
// start, hold seconds at peak, then a linear ramp back down over rampDown
// seconds — the trace shape that punishes both fixed under-provisioning
// (misses during the crowd) and fixed over-provisioning (idle replicas the
// rest of the run).
func FlashCrowdRate(base, peak, start, rampUp, hold, rampDown float64) func(t float64) float64 {
	return func(t float64) float64 {
		switch {
		case t < start:
			return base
		case t < start+rampUp:
			return base + (peak-base)*(t-start)/rampUp
		case t < start+rampUp+hold:
			return peak
		case t < start+rampUp+hold+rampDown:
			return peak - (peak-base)*(t-start-rampUp-hold)/rampDown
		default:
			return base
		}
	}
}

// LatencyStats accumulates response-latency statistics online. Samples are
// retained so tail percentiles — the metric replica routing is judged by —
// can be computed after the run.
type LatencyStats struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64

	samples []float64
}

// NewLatencyStats returns an empty accumulator.
func NewLatencyStats() *LatencyStats {
	return &LatencyStats{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add records one latency observation (seconds).
func (l *LatencyStats) Add(v float64) {
	l.Count++
	l.Sum += v
	if v < l.Min {
		l.Min = v
	}
	if v > l.Max {
		l.Max = v
	}
	l.samples = append(l.samples, v)
}

// Avg returns the mean latency, or NaN when empty.
func (l *LatencyStats) Avg() float64 {
	if l.Count == 0 {
		return math.NaN()
	}
	return l.Sum / float64(l.Count)
}

// Sorted returns the recorded samples in ascending order. Sorting is
// deferred to the first call after an Add, so Add stays O(1) during the run.
func (l *LatencyStats) Sorted() []float64 {
	if !sort.Float64sAreSorted(l.samples) {
		sort.Float64s(l.samples)
	}
	return l.samples
}

// Percentile returns the p-quantile (0 < p ≤ 1) of the recorded samples by
// the nearest-rank method, or NaN when empty.
func (l *LatencyStats) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		return math.NaN()
	}
	l.Sorted()
	idx := int(math.Ceil(p*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}
