package simclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventsFireInOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order: %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock should advance to until: %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var events []float64
	s.After(1, func() {
		events = append(events, s.Now())
		s.After(2, func() { events = append(events, s.Now()) })
	})
	s.Run(5)
	if len(events) != 2 || events[0] != 1 || events[1] != 3 {
		t.Fatalf("events: %v", events)
	}
}

func TestRunStopsAtLimit(t *testing.T) {
	s := New()
	fired := false
	s.At(5, func() { fired = true })
	s.Run(4)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if s.events.Len() != 1 {
		t.Fatal("event should remain queued")
	}
	s.Run(5)
	if !fired {
		t.Fatal("event at exactly the limit should fire")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.After(-1, func() {})
}

func TestPoissonDeterministic(t *testing.T) {
	times := func(seed int64) []float64 {
		s := New()
		var ts []float64
		s.PoissonArrivals(100, seed, 1, func(i int64) { ts = append(ts, s.Now()) })
		s.Run(1)
		return ts
	}
	a, b := times(7), times(7)
	if len(a) != len(b) {
		t.Fatal("non-deterministic arrival count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic arrival times")
		}
	}
	c := times(8)
	if len(a) == len(c) && len(a) > 0 && a[0] == c[0] {
		t.Fatal("different seeds should differ")
	}
}

// Property: Poisson arrival counts concentrate near rate×duration.
func TestQuickPoissonRate(t *testing.T) {
	f := func(seed int64) bool {
		s := New()
		count := 0
		const rate, dur = 200.0, 5.0
		s.PoissonArrivals(rate, seed, dur, func(i int64) { count++ })
		s.Run(dur)
		mean := rate * dur
		// 5 sigma window.
		dev := 5 * math.Sqrt(mean)
		return float64(count) > mean-dev && float64(count) < mean+dev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonZeroRate(t *testing.T) {
	s := New()
	s.PoissonArrivals(0, 1, 10, func(i int64) { t.Fatal("no arrivals expected") })
	s.Run(10)
}

func TestLatencyStats(t *testing.T) {
	l := NewLatencyStats()
	if !math.IsNaN(l.Avg()) {
		t.Fatal("empty avg should be NaN")
	}
	l.Add(2)
	l.Add(4)
	l.Add(9)
	if l.Count != 3 || l.Min != 2 || l.Max != 9 {
		t.Fatalf("stats: %+v", l)
	}
	if l.Avg() != 5 {
		t.Fatalf("avg: %v", l.Avg())
	}
}

// Property: thinned non-homogeneous arrivals concentrate near ∫rate dt per
// segment — here a flash crowd whose three phases have known areas.
func TestQuickVaryingArrivalsRate(t *testing.T) {
	f := func(seed int64) bool {
		s := New()
		const base, peak = 40.0, 400.0
		// base for 5s, ramp 1s, hold 3s at peak, ramp 1s, base for 5s.
		rate := FlashCrowdRate(base, peak, 5, 1, 3, 1)
		var before, during, after int
		s.VaryingArrivals(rate, peak, seed, 15, func(i int64) {
			switch now := s.Now(); {
			case now < 5:
				before++
			case now <= 10:
				during++
			default:
				after++
			}
		})
		s.Run(15)
		okSeg := func(count int, mean float64) bool {
			dev := 5 * math.Sqrt(mean)
			return float64(count) > mean-dev && float64(count) < mean+dev
		}
		// Areas: 5·base; ramps contribute (base+peak)/2 each plus 3·peak; 5·base.
		return okSeg(before, 5*base) && okSeg(during, (base+peak)+3*peak) && okSeg(after, 5*base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// VaryingArrivals with the same seed is bit-deterministic, and a rate above
// the thinning bound panics.
func TestVaryingArrivalsDeterminismAndBound(t *testing.T) {
	times := func() []float64 {
		s := New()
		var ts []float64
		s.VaryingArrivals(diurnalRate(10, 100, 20), 100, 7, 20, func(i int64) { ts = append(ts, s.Now()) })
		s.Run(20)
		return ts
	}
	a, b := times(), times()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rate above maxRate did not panic")
		}
	}()
	s := New()
	s.VaryingArrivals(func(float64) float64 { return 50 }, 10, 1, 5, func(int64) {})
}

// diurnalRate troughs at t=0 and peaks at half period.
func TestDiurnalRateShape(t *testing.T) {
	r := diurnalRate(2, 10, 8)
	if got := r(0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("trough: %v", got)
	}
	if got := r(4); math.Abs(got-10) > 1e-9 {
		t.Fatalf("peak: %v", got)
	}
	if got := r(8); math.Abs(got-2) > 1e-9 {
		t.Fatalf("full period: %v", got)
	}
}

// diurnalRate returns a day-shaped rate curve for VaryingArrivals: a raised
// cosine oscillating between base (trough, at t=0) and peak with the given
// period. base may be 0 (dead of night).
func diurnalRate(base, peak, period float64) func(t float64) float64 {
	return func(t float64) float64 {
		phase := 0.5 * (1 - math.Cos(2*math.Pi*t/period))
		return base + (peak-base)*phase
	}
}
