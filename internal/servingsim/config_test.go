package servingsim_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/servingsim"
)

func validConfig() servingsim.Config {
	cost := sched.CostFunc(goldenCost)
	return servingsim.Config{
		Rate: 50, Warmup: 1, Duration: 2, Seed: 7, LenLo: 2, LenHi: 100,
		NewScheduler: func() sched.Scheduler { return &sched.DPScheduler{Cost: cost, MaxBatch: 20} },
		Cost:         cost,
		MaxBatch:     20,
		Servers:      2,
	}
}

// TestRunRejectsBadConfig: Run validates once, up front, and says what is
// wrong — instead of hanging (Lazy with no timeout re-armed a zero-delay
// timer that always sorted ahead of the next arrival), dividing by a zero
// Duration, or quietly running all-mixed under a role list of the wrong
// length. Each row runs under a watchdog.
func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(*servingsim.Config)
		wantErr string
	}{
		{"lazy with zero timeout", func(c *servingsim.Config) { c.Strategy, c.LazyTimeout = servingsim.Lazy, 0 }, "LazyTimeout"},
		{"lazy with negative timeout", func(c *servingsim.Config) { c.Strategy, c.LazyTimeout = servingsim.Lazy, -1 }, "LazyTimeout"},
		{"nil scheduler factory", func(c *servingsim.Config) { c.NewScheduler = nil }, "NewScheduler"},
		{"nil cost model", func(c *servingsim.Config) { c.Cost = nil }, "Cost"},
		{"zero duration", func(c *servingsim.Config) { c.Duration = 0 }, "Duration"},
		{"NaN duration", func(c *servingsim.Config) { c.Duration = math.NaN() }, "Duration"},
		{"GenFrac above 1", func(c *servingsim.Config) { c.GenFrac = 1.5 }, "GenFrac"},
		{"negative GenFrac", func(c *servingsim.Config) { c.GenFrac = -0.1 }, "GenFrac"},
		{"3 roles for 2 servers", func(c *servingsim.Config) {
			c.Roles = []serving.ReplicaRole{serving.RolePrefill, serving.RoleDecode, serving.RoleMixed}
		}, "serving: 3 replica roles for 2 replicas (want one role per replica, or none)"},
		{"roles with no end-to-end generation", func(c *servingsim.Config) {
			c.Roles = []serving.ReplicaRole{serving.RoleDecode, serving.RoleDecode}
		}, "serving: roles [decode decode] can serve no generation end-to-end"},
		{"roles on an autoscaled fleet", func(c *servingsim.Config) {
			c.Roles = []serving.ReplicaRole{serving.RoleMixed, serving.RoleMixed}
			c.Autoscale = &autoscale.Config{Min: 1, Max: 2}
		}, "not elastic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.edit(&cfg)
			errc := make(chan error, 1)
			go func() {
				_, err := servingsim.Run(cfg)
				errc <- err
			}()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run returned %v, want an error naming %q", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return within 5s")
			}
		})
	}
	if _, err := servingsim.Run(validConfig()); err != nil {
		t.Fatalf("the base configuration must be valid: %v", err)
	}
}
