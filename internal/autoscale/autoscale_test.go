package autoscale

import (
	"context"
	"testing"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// overload/idle are signal samples clearly beyond the default thresholds.
func overload(replicas int) Signals {
	return Signals{Replicas: replicas, QueueDepth: int64(replicas * 100), DrainRate: 5, DrainMeasured: true}
}

func idle(replicas int) Signals {
	return Signals{Replicas: replicas, QueueDepth: 0, DrainRate: 5, DrainMeasured: true}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Min: 0, Max: 4},
		{Min: 3, Max: 2},
		{Min: 1, Max: 4, UpQueueDepth: 2, DownQueueDepth: 2},       // no hysteresis gap
		{Min: 1, Max: 4, UpKVOccupancy: 0.5, DownKVOccupancy: 0.6}, // inverted
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Min: 1, Max: 4}); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
}

// TestScaleUpNeedsStreak: a single overloaded tick does nothing; UpTicks
// consecutive ones fire exactly one ScaleUp.
func TestScaleUpNeedsStreak(t *testing.T) {
	c := mustNew(t, Config{Min: 1, Max: 4, UpTicks: 3})
	for i := 0; i < 2; i++ {
		if d := c.Tick(overload(1)); d != Hold {
			t.Fatalf("tick %d: %v before streak complete", i, d)
		}
	}
	// An idle tick resets the streak.
	if d := c.Tick(idle(1)); d != Hold {
		t.Fatalf("idle tick: %v", d)
	}
	for i := 0; i < 2; i++ {
		if d := c.Tick(overload(1)); d != Hold {
			t.Fatalf("restarted streak tick %d: %v", i, d)
		}
	}
	if d := c.Tick(overload(1)); d != ScaleUp {
		t.Fatalf("completed streak: %v, want ScaleUp", d)
	}
}

// TestCooldownSpacesActions: after an action, no further action can fire
// for Cooldown ticks even under a sustained trigger streak.
func TestCooldownSpacesActions(t *testing.T) {
	const cool = 5
	c := mustNew(t, Config{Min: 1, Max: 8, UpTicks: 1, Cooldown: cool})
	if d := c.Tick(overload(1)); d != ScaleUp {
		t.Fatalf("first action: %v", d)
	}
	gap := 0
	for c.Tick(overload(2)) == Hold {
		gap++
		if gap > 100 {
			t.Fatal("controller never acted again")
		}
	}
	// The action consumed one tick; the holds before it are the cool-down.
	if gap < cool {
		t.Fatalf("second action after %d holds, want ≥ %d (cooldown)", gap, cool)
	}
}

// TestHysteresisNoFlap: alternating one-tick bursts of overload and idle
// must never produce an action with UpTicks/DownTicks > 1 — each flip
// resets the opposite streak, so flapping input yields a constant fleet.
func TestHysteresisNoFlap(t *testing.T) {
	c := mustNew(t, Config{Min: 1, Max: 4, UpTicks: 2, DownTicks: 2, Cooldown: 2})
	for i := 0; i < 200; i++ {
		s := overload(2)
		if i%2 == 1 {
			s = idle(2)
		}
		if d := c.Tick(s); d != Hold {
			t.Fatalf("tick %d: flapping input produced %v", i, d)
		}
	}
}

// TestBoundsRespected: at Max a sustained overload never scales up; at Min
// a sustained idle never scales down.
func TestBoundsRespected(t *testing.T) {
	c := mustNew(t, Config{Min: 1, Max: 2, UpTicks: 1, DownTicks: 1, Cooldown: 1})
	for i := 0; i < 50; i++ {
		if d := c.Tick(overload(2)); d != Hold {
			t.Fatalf("scale-up at Max (tick %d): %v", i, d)
		}
	}
	for i := 0; i < 50; i++ {
		if d := c.Tick(idle(1)); d != Hold {
			t.Fatalf("scale-down at Min (tick %d): %v", i, d)
		}
	}
}

// TestScaleDownSlower: with default tuning, recovering from idle takes
// DownTicks > UpTicks ticks — spare capacity outlives the burst.
func TestScaleDownSlower(t *testing.T) {
	c := mustNew(t, Config{Min: 1, Max: 4})
	cfg := c.Config()
	if cfg.DownTicks <= cfg.UpTicks {
		t.Fatalf("defaults: DownTicks %d must exceed UpTicks %d", cfg.DownTicks, cfg.UpTicks)
	}
	ticks := 0
	for c.Tick(idle(3)) == Hold {
		ticks++
		if ticks > 100 {
			t.Fatal("never scaled down")
		}
	}
	if ticks < cfg.DownTicks-1 {
		t.Fatalf("scaled down after %d ticks, want ≥ %d", ticks, cfg.DownTicks-1)
	}
}

// TestKVOccupancyTriggersScaleUp: a decode-heavy fleet can be overloaded
// with an empty admission queue — block-pool occupancy alone must trigger.
func TestKVOccupancyTriggersScaleUp(t *testing.T) {
	c := mustNew(t, Config{Min: 1, Max: 4, UpTicks: 1})
	s := Signals{Replicas: 1, QueueDepth: 0, KVBlocksUsed: 95, KVBlocksTotal: 100}
	if d := c.Tick(s); d != ScaleUp {
		t.Fatalf("KV occupancy 0.95: %v, want ScaleUp", d)
	}
}

// TestWedgedFleetTriggersScaleUp: a measured drain rate of zero with work
// queued counts as overload even below the queue-depth threshold.
func TestWedgedFleetTriggersScaleUp(t *testing.T) {
	c := mustNew(t, Config{Min: 1, Max: 4, UpTicks: 1})
	s := Signals{Replicas: 2, QueueDepth: 2, DrainRate: 0, DrainMeasured: true}
	if d := c.Tick(s); d != ScaleUp {
		t.Fatalf("wedged fleet: %v, want ScaleUp", d)
	}
	// The same queue depth with an UNMEASURED meter is a cold fleet, not a
	// wedged one — no action.
	c2 := mustNew(t, Config{Min: 1, Max: 4, UpTicks: 1})
	s.DrainMeasured = false
	if d := c2.Tick(s); d != Hold {
		t.Fatalf("cold meter treated as wedged: %v", d)
	}
}

// injectedScaler records the actions Run executes against it while always
// reporting an overloaded fleet.
type injectedScaler struct {
	replicas int
	ups      int
	acted    chan struct{}
}

func (f *injectedScaler) Signals() Signals { return overload(f.replicas) }

func (f *injectedScaler) ScaleUp() error {
	f.replicas++
	f.ups++
	f.acted <- struct{}{}
	return nil
}

func (f *injectedScaler) ScaleDown(context.Context) error { return nil }

// TestRunConsumesInjectedTickSource: with a TickSource supplying virtual
// ticks, Run is fully deterministic — exactly UpTicks injected ticks produce
// exactly one ScaleUp, and cancelling the context stops the source.
func TestRunConsumesInjectedTickSource(t *testing.T) {
	ticks := make(chan time.Time)
	var stopped bool
	c := mustNew(t, Config{
		Min: 1, Max: 4, UpTicks: 2,
		TickSource: func(time.Duration) (<-chan time.Time, func()) {
			return ticks, func() { stopped = true }
		},
	})
	fs := &injectedScaler{replicas: 1, acted: make(chan struct{}, 4)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx, fs)
	}()

	ticks <- time.Time{}
	select {
	case <-fs.acted:
		t.Fatal("action after a single tick (UpTicks=2)")
	default:
	}
	ticks <- time.Time{}
	<-fs.acted

	cancel()
	<-done
	if fs.ups != 1 {
		t.Fatalf("ScaleUp executed %d times, want 1", fs.ups)
	}
	if !stopped {
		t.Fatal("Run returned without calling the tick source's stop function")
	}
}
