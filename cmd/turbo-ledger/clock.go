package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// The reference clock. The VM this benchmark runs on slows down by up to
// 1.9× for seconds to minutes at a time, and what slows is the load/store
// path: a register-only loop keeps its speed, a GEMM inner loop does not
// (README, "The reference clock", has the measurements). No statistic over a
// run of a minute can tell such a stretch from a slower system, so the
// benchmark does not time on the wall clock. It times on a clock that ticks
// once per unit of a fixed piece of work of its own:
//
//   - refUnit is a frozen 32×32×32 matrix product, the shape of the inner
//     loop the system spends its time in, written here and never changed. It
//     runs twice and the second pass is timed, so its 12 KiB are in the L1
//     cache whatever ran before it;
//   - one goroutine runs a unit every refUnitEvery, whenever the one P has
//     nothing else to run (it yields between units, so it also keeps the P
//     from idling, and a long computation is preempted for it every 10 ms);
//   - slowness is the median of the last units over refUnitTime, the unit's
//     time on the calm machine; reference time advances by wall time over
//     slowness.
//
// Every duration the benchmark reports is a difference of now() readings,
// and the open loop paces arrivals on the same clock, so a slow stretch
// neither lengthens latencies nor raises the offered load: the system sees
// the same utilisation whatever the machine is doing. A change to the
// system cannot move the clock — the unit calls nothing outside this file.
const (
	refUnitTime  = 24400 * time.Nanosecond // one warm refUnit on the calm machine
	refUnitEvery = 2 * time.Millisecond    // at most one timed unit per this much wall time
	refUnitsKept = 15                      // slowness is the median of this many
)

const refN = 32

type refClock struct {
	state atomic.Pointer[clockState]
	units atomic.Int64 // units run so far
	quit  chan struct{}
	done  chan struct{}
}

// clockState is one reading: at wall time wall the reference clock stood at
// ref, and it advances at 1/slow until the next unit replaces the reading.
type clockState struct {
	wall time.Time
	ref  time.Duration
	slow float64
}

// clock is the process's reference clock; nil (in unit tests of pure
// functions) means reference time is wall time.
var clock *refClock

var clockEpoch = time.Now()

// startClock pins the process to one P, starts the clock and returns once
// its first slowness estimate stands on a full set of units. Two Ps would
// let the VM's two vCPUs share a core's load/store path with each other.
func startClock() (stop func()) {
	runtime.GOMAXPROCS(1)
	c := &refClock{quit: make(chan struct{}), done: make(chan struct{})}
	c.state.Store(&clockState{wall: time.Now(), slow: 1})
	go c.run()
	for c.units.Load() < refUnitsKept {
		runtime.Gosched()
	}
	clock = c
	return func() {
		close(c.quit)
		<-c.done
		clock = nil
	}
}

func (c *refClock) run() {
	defer close(c.done)
	var a, b, out [refN * refN]float32
	for i := range a {
		a[i], b[i] = float32(i%7)*0.01, float32(i%5)*0.01
	}
	var last [refUnitsKept]float64
	var sorted [refUnitsKept]float64
	for n := 0; ; n++ {
		select {
		case <-c.quit:
			return
		default:
		}
		refUnit(&a, &b, &out)
		start := time.Now()
		refUnit(&a, &b, &out)
		end := time.Now()
		last[n%refUnitsKept] = float64(end.Sub(start)) / float64(refUnitTime)
		kept := min(n+1, refUnitsKept)
		copy(sorted[:], last[:kept])
		sort.Float64s(sorted[:kept])
		prev := c.state.Load()
		c.state.Store(&clockState{wall: end, ref: prev.at(end), slow: sorted[kept/2]})
		c.units.Add(1)
		for time.Since(end) < refUnitEvery {
			runtime.Gosched()
		}
	}
}

// refUnit is the fixed work: out += a·b, row by row, as a plain Go loop.
func refUnit(a, b, out *[refN * refN]float32) {
	for i := 0; i < refN; i++ {
		row := out[i*refN : (i+1)*refN]
		for k := 0; k < refN; k++ {
			aik := a[i*refN+k]
			brow := b[k*refN : (k+1)*refN]
			for j := range row {
				row[j] += aik * brow[j]
			}
		}
	}
}

func (s *clockState) at(wall time.Time) time.Duration {
	return s.ref + time.Duration(float64(wall.Sub(s.wall))/s.slow)
}

// now reads the reference clock.
func now() time.Time {
	if clock == nil {
		return time.Now()
	}
	return clockEpoch.Add(clock.state.Load().at(time.Now()))
}

func since(t time.Time) time.Duration { return now().Sub(t) }

// slowness is the machine's current slowness: 1 on the calm machine.
func slowness() float64 {
	if clock == nil {
		return 1
	}
	return clock.state.Load().slow
}

// refDuration converts a wall duration measured just now (one the system
// reports about itself) into reference time.
func refDuration(wall time.Duration) time.Duration {
	return time.Duration(float64(wall) / slowness())
}

// sleepUntil sleeps until the reference clock reads at, looking at the clock
// again at least every few milliseconds in case the machine changed speed. It
// gives up, and says so, when the wall clock reaches deadline first.
func sleepUntil(at, deadline time.Time) (reached bool) {
	for {
		left := at.Sub(now())
		if left <= 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(min(time.Duration(float64(left)*slowness()), 5*time.Millisecond))
	}
}
