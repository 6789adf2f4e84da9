package serving

import (
	"errors"
	"math"
	"sync"
	"time"
)

// ErrSLOShed refuses admission for a priority class whose deadline-miss
// budget is exhausted — the front door sheds the class with 504 BEFORE any
// prefill work is spent, instead of admitting work that will expire
// mid-queue anyway.
var ErrSLOShed = errors.New("serving: deadline-miss budget exhausted for this priority class; shedding at admission")

// DefaultSLOWindow is the sliding window deadline misses are budgeted
// over when the configuration does not set one.
const DefaultSLOWindow = 5 * time.Second

// sloController tracks per-priority-class deadline misses over a sliding
// window and closes admission for a class once its budget is exhausted —
// the SLO-aware overload control paired with the autoscaler. Misses are
// recorded wherever jobs expire (every replica's dispatchers feed the same
// controller under a router), and the shed decision is taken at the front
// door that owns the controller: the Router for a replicated service, the
// Server itself when it is the front door.
type sloController struct {
	mu     sync.Mutex
	budget int           // misses per class per window before shedding
	window time.Duration // sliding window length
	misses map[int][]time.Time
}

// newSLOController builds a controller; budget < 1 is a configuration bug
// handled by the callers (they pass nil instead).
func newSLOController(budget int, window time.Duration) *sloController {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	return &sloController{budget: budget, window: window, misses: map[int][]time.Time{}}
}

// prune drops misses older than the window. Caller holds mu.
func (c *sloController) prune(class int, now time.Time) []time.Time {
	m := c.misses[class]
	cut := 0
	for cut < len(m) && now.Sub(m[cut]) >= c.window {
		cut++
	}
	if cut > 0 {
		m = append(m[:0:0], m[cut:]...)
		c.misses[class] = m
	}
	return m
}

// recordMiss charges one deadline miss to the class.
func (c *sloController) recordMiss(class int, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses[class] = append(c.prune(class, now), now)
}

// shed reports whether a new job of the class must be refused, and — when
// it must — the Retry-After seconds derived from the BUDGET WINDOW: the
// time until enough recorded misses age out for the class's miss count to
// drop below budget again. That is the moment admission actually reopens;
// the queue-drain estimate a 429 uses would be misleadingly small here,
// because the queue keeps draining while the class stays closed.
func (c *sloController) shed(class int, now time.Time) (retryAfterSec int, shed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.prune(class, now)
	if len(m) < c.budget {
		return 0, false
	}
	// Admission reopens when the miss count drops to budget-1: the
	// (len-budget+1)-th oldest miss must age out, i.e. m[len-budget].
	reopen := m[len(m)-c.budget].Add(c.window)
	retry := int(math.Ceil(reopen.Sub(now).Seconds()))
	if retry < minRetryAfter {
		retry = minRetryAfter
	}
	if retry > maxRetryAfter {
		retry = maxRetryAfter
	}
	return retry, true
}
