// Package autoscale is the elastic-replica control loop above the serving
// router: it samples the fleet's load signals (queue depth, drain rate,
// KV-block occupancy, reserved decode tokens) on a fixed tick and decides
// when to attach or retire replicas between configured bounds.
//
// The controller is deliberately a pure decision machine: Tick consumes one
// Signals sample and returns Hold/ScaleUp/ScaleDown. The caller — the
// cluster simulator on a virtual clock, or Run on the wall clock — owns
// reading the signals and executing the action, so the exact same
// hysteresis logic is validated in simulation before it touches a live
// router.
//
// Flapping is impossible by construction, not by tuning:
//
//   - the scale-up threshold is strictly above the scale-down threshold
//     (validated), so no single load level satisfies both;
//   - an action requires a STREAK of consecutive ticks beyond its
//     threshold, and any tick on the other side resets the streak;
//   - every action starts a cool-down during which no action fires, so two
//     actions are always at least Cooldown ticks apart.
package autoscale

import (
	"context"
	"fmt"
	"time"
)

// Signals is one sample of the fleet-wide load the controller acts on —
// the router's aggregated /v1/stats signals, or their simulator analogues.
type Signals struct {
	// Replicas is the number of replicas currently receiving traffic
	// (retiring replicas are excluded — they no longer serve new work).
	Replicas int
	// QueueDepth is the summed admission-queue depth across the fleet.
	QueueDepth int64
	// DrainRate is the fleet's recent job-completion rate (jobs/sec);
	// meaningful only when DrainMeasured. A MEASURED rate of ~zero with a
	// non-empty queue is a wedged fleet — overload by definition.
	DrainRate     float64
	DrainMeasured bool
	// KVBlocksUsed/Total gauge the KV block pools' occupancy by running
	// generations (zero Total when the fleet serves no generation).
	KVBlocksUsed, KVBlocksTotal int64
	// GenReservedTokens is the continuous schedulers' summed worst-case
	// context reservation — the admission-side KV pressure gauge.
	GenReservedTokens int64
}

// KVOccupancy is used/total, or 0 without a paged pool.
func (s Signals) KVOccupancy() float64 {
	if s.KVBlocksTotal <= 0 {
		return 0
	}
	return float64(s.KVBlocksUsed) / float64(s.KVBlocksTotal)
}

// Config bounds and tunes the controller. The zero value of every
// threshold field is replaced by its default; Min/Max are required.
type Config struct {
	// Min and Max bound the replica count. Min ≥ 1, Max ≥ Min.
	Min, Max int

	// Tick is the live sampling period (Run). The simulator supplies its
	// own virtual tick. Default 250ms — the drain meter's window, so every
	// tick can see a fresh rate.
	Tick time.Duration

	// UpQueueDepth: a tick with per-replica queue depth ≥ this counts
	// toward scale-up (default 4).
	UpQueueDepth float64
	// DownQueueDepth: a tick with per-replica queue depth ≤ this (and cool
	// KV) counts toward scale-down (default 0.5). Must be < UpQueueDepth.
	DownQueueDepth float64
	// UpKVOccupancy: block-pool occupancy ≥ this also counts toward
	// scale-up (default 0.85) — queue depth alone misses decode-heavy
	// overload, where admission gates on blocks, not queue slots.
	UpKVOccupancy float64
	// DownKVOccupancy: occupancy must be ≤ this for a tick to count toward
	// scale-down (default 0.40). Must be < UpKVOccupancy.
	DownKVOccupancy float64

	// UpTicks consecutive overloaded ticks trigger scale-up (default 2);
	// DownTicks consecutive idle ticks trigger scale-down (default 8 —
	// deliberately slower, spare capacity is cheaper than a missed SLO).
	UpTicks, DownTicks int
	// Cooldown ticks after any action during which no action fires
	// (default 4).
	Cooldown int

	// TickSource overrides where Run's ticks come from: it returns a
	// channel delivering one value per sampling period plus a stop
	// function. Nil means a wall-clock ticker at Tick — the live default.
	// Tests and deterministic replays inject a virtual source here, so the
	// control LOOP (not just the decision machine) runs off the wall
	// clock; turbo-vet's wallclock analyzer keeps the package's one real
	// ticker confined to the default below.
	TickSource func(period time.Duration) (<-chan time.Time, func())
}

// withDefaults fills zero tuning fields.
func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = 250 * time.Millisecond
	}
	if c.UpQueueDepth == 0 {
		c.UpQueueDepth = 4
	}
	if c.DownQueueDepth == 0 {
		c.DownQueueDepth = 0.5
	}
	if c.UpKVOccupancy == 0 {
		c.UpKVOccupancy = 0.85
	}
	if c.DownKVOccupancy == 0 {
		c.DownKVOccupancy = 0.40
	}
	if c.UpTicks == 0 {
		c.UpTicks = 2
	}
	if c.DownTicks == 0 {
		c.DownTicks = 8
	}
	if c.Cooldown == 0 {
		c.Cooldown = 4
	}
	return c
}

// validate rejects configurations whose thresholds could flap.
func (c Config) validate() error {
	if c.Min < 1 {
		return fmt.Errorf("autoscale: Min %d < 1", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("autoscale: Max %d < Min %d", c.Max, c.Min)
	}
	if c.DownQueueDepth >= c.UpQueueDepth {
		return fmt.Errorf("autoscale: DownQueueDepth %.2f must be strictly below UpQueueDepth %.2f (hysteresis gap)",
			c.DownQueueDepth, c.UpQueueDepth)
	}
	if c.DownKVOccupancy >= c.UpKVOccupancy {
		return fmt.Errorf("autoscale: DownKVOccupancy %.2f must be strictly below UpKVOccupancy %.2f (hysteresis gap)",
			c.DownKVOccupancy, c.UpKVOccupancy)
	}
	if c.UpTicks < 1 || c.DownTicks < 1 || c.Cooldown < 1 {
		return fmt.Errorf("autoscale: UpTicks/DownTicks/Cooldown must be ≥ 1")
	}
	return nil
}

// Decision is one tick's outcome.
type Decision int

const (
	// Hold leaves the fleet as it is.
	Hold Decision = iota
	// ScaleUp attaches one replica.
	ScaleUp
	// ScaleDown retires one replica (drain-then-retire).
	ScaleDown
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	}
	return "hold"
}

// Controller is the hysteresis decision machine. Not safe for concurrent
// use — one goroutine (or the simulator's event loop) drives it.
type Controller struct {
	cfg Config

	upStreak, downStreak int
	cooldown             int
}

// New validates cfg (after filling defaulted tuning fields) and returns a
// controller.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Config reports the resolved (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Tick consumes one signals sample and returns the action the caller
// should execute. Bounds are enforced here: at Max no ScaleUp is ever
// returned, at Min no ScaleDown.
func (c *Controller) Tick(s Signals) Decision {
	replicas := s.Replicas
	if replicas < 1 {
		replicas = 1
	}
	perReplica := float64(s.QueueDepth) / float64(replicas)
	occ := s.KVOccupancy()

	// A measured near-zero drain with queued work is a wedged fleet: more
	// capacity is the only lever this loop has, so it counts as overload.
	wedged := s.DrainMeasured && s.DrainRate <= 0 && s.QueueDepth > 0
	over := perReplica >= c.cfg.UpQueueDepth || occ >= c.cfg.UpKVOccupancy || wedged
	under := !over && perReplica <= c.cfg.DownQueueDepth && occ <= c.cfg.DownKVOccupancy

	switch {
	case over:
		c.upStreak++
		c.downStreak = 0
	case under:
		c.downStreak++
		c.upStreak = 0
	default:
		// The hysteresis band between the thresholds: no streak accrues in
		// either direction.
		c.upStreak, c.downStreak = 0, 0
	}

	if c.cooldown > 0 {
		c.cooldown--
		return Hold
	}
	if c.upStreak >= c.cfg.UpTicks && s.Replicas < c.cfg.Max {
		c.upStreak, c.downStreak = 0, 0
		c.cooldown = c.cfg.Cooldown
		return ScaleUp
	}
	if c.downStreak >= c.cfg.DownTicks && s.Replicas > c.cfg.Min {
		c.upStreak, c.downStreak = 0, 0
		c.cooldown = c.cfg.Cooldown
		return ScaleDown
	}
	return Hold
}

// Scaler is the fleet the live loop acts on — the serving router behind an
// adapter. ScaleDown blocks for the drain (drain-then-retire), so at most
// one action is ever in flight: Run executes actions inline.
type Scaler interface {
	Signals() Signals
	ScaleUp() error
	ScaleDown(ctx context.Context) error
}

// Run drives the controller against target every cfg.Tick until ctx is
// cancelled. Action errors (e.g. a replica factory failure) are dropped:
// the cool-down already spaces retries, and the next overloaded streak
// tries again. Ticks come from cfg.TickSource when set (virtual time for
// tests and replays) and a wall-clock ticker otherwise (the live loop).
func (c *Controller) Run(ctx context.Context, target Scaler) {
	source := c.cfg.TickSource
	if source == nil {
		source = wallTicker
	}
	ticks, stop := source(c.cfg.Tick)
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticks:
			switch c.Tick(target.Signals()) {
			case ScaleUp:
				_ = target.ScaleUp()
			case ScaleDown:
				_ = target.ScaleDown(ctx)
			}
		}
	}
}

// wallTicker is the live default tick source — the one place the
// simulation-bound autoscale package touches the wall clock.
func wallTicker(period time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(period) //turbovet:allow wallclock -- the live control loop's default tick source; tests inject TickSource
	return t.C, t.Stop
}
