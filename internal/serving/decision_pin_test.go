package serving

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

const decisionFile = "testdata/decisions.txt"

// pinServers builds n classify-only replicas over one shared engine. The
// decisions pinned below read the router's gauges and never run a request,
// so the engine is only there to satisfy NewServer.
func pinServers(t *testing.T, engine *core.Engine, n int) []*Server {
	t.Helper()
	out := make([]*Server, n)
	for i := range out {
		srv, err := NewServer(ServerConfig{Engine: engine, Scheduler: &sched.NoBatchScheduler{Cost: sched.TokenCounts}, MaxBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		out[i] = srv
	}
	return out
}

// setGauges overwrites every replica's in-flight and priced-load gauges.
func setGauges(rt *Router, inflight, load []int64) {
	for i, rep := range rt.replicas {
		rep.inflight.Store(inflight[i])
		rep.loadNS.Store(load[i])
	}
}

// indexOf is rep's position in the router's current replica order.
func indexOf(rt *Router, rep *replica) int {
	for i, r := range rt.replicas {
		if r == rep {
			return i
		}
	}
	return -1
}

// triples enumerates {0,1,2}³ scaled by unit, first index slowest.
func triples(unit int64) [][]int64 {
	var out [][]int64
	for a := int64(0); a < 3; a++ {
		for b := int64(0); b < 3; b++ {
			for c := int64(0); c < 3; c++ {
				out = append(out, []int64{a * unit, b * unit, c * unit})
			}
		}
	}
	return out
}

// pinPicks records each policy's pick over three replicas: the load-reading
// policies over every in-flight × priced-load vector in {0,1,2}³, and
// round-robin's turn sequence, shared by the generate and classify routes
// and blind to both gauges.
func pinPicks(t *testing.T, engine *core.Engine, b *strings.Builder) {
	for _, policy := range []BalancePolicy{LeastQueue, TokenCostRouting} {
		rt, err := NewRouter(RouterConfig{Policy: policy}, pinServers(t, engine, 3)...)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "pick/%s: one digit per load vector {0,100,200}³, first replica slowest\n", policy)
		for _, inflight := range triples(1) {
			var picks strings.Builder
			for _, load := range triples(100) {
				setGauges(rt, inflight, load)
				rep, release := rt.route(4, 0)
				fmt.Fprint(&picks, indexOf(rt, rep))
				release()
			}
			fmt.Fprintf(b, "pick/%s inflight=%v: %s\n", policy, inflight, picks.String())
		}
	}
	for _, n := range []int{2, 3} {
		rt, err := NewRouter(RouterConfig{Policy: RoundRobin}, pinServers(t, engine, n)...)
		if err != nil {
			t.Fatal(err)
		}
		setGauges(rt, []int64{5, 0, 9}[:n], []int64{0, 700, 3}[:n])
		var picks strings.Builder
		for i := 0; i < 3*n+1; i++ {
			var rep *replica
			var release func()
			if i%2 == 0 {
				rep, release = rt.route(4, 2)
			} else {
				rep, release = rt.routeClassify(4)
			}
			fmt.Fprint(&picks, indexOf(rt, rep))
			release()
		}
		fmt.Fprintf(b, "pick/round-robin n=%d generate,classify alternating: %s\n", n, picks.String())
	}
}

// pinClassifyCandidates records where classify may land under a role list:
// a round-robin router visits every candidate in order, so two laps spell
// out the candidate set. Role lists NewRouter refuses are recorded with
// their error.
func pinClassifyCandidates(t *testing.T, engine *core.Engine, b *strings.Builder) {
	m, p, d := RoleMixed, RolePrefill, RoleDecode
	for _, roles := range [][]ReplicaRole{
		nil,
		{p, d},
		{d, d},
		{p, p},
		{m, p, d},
		{d, m},
		{d, p, d},
		{p, d, m, d},
		{m, m},
	} {
		n := len(roles)
		if n == 0 {
			n = 3
		}
		rt, err := NewRouter(RouterConfig{Roles: roles}, pinServers(t, engine, n)...)
		if err != nil {
			fmt.Fprintf(b, "classify roles=%v: rejected: %v\n", roles, err)
			continue
		}
		var picks strings.Builder
		for i := 0; i < 2*n; i++ {
			rep, release := rt.routeClassify(4)
			fmt.Fprint(&picks, indexOf(rt, rep))
			release()
		}
		fmt.Fprintf(b, "classify roles=%v: %s\n", roles, picks.String())
	}
}

// planString renders one plan as M<i> (whole session on mixed replica i) or
// S<p>><d> (prefill on p, hand-off to d), and refunds its charges.
func planString(rt *Router, plan genPlan) string {
	if plan.mixed != nil {
		plan.releaseMixed()
		return fmt.Sprintf("M%d", indexOf(rt, plan.mixed))
	}
	plan.releasePrefill()
	plan.releaseDecode()
	return fmt.Sprintf("S%d>%d", indexOf(rt, plan.prefill), indexOf(rt, plan.decode))
}

// pinPlacements records planGenerate's choice. On [mixed, prefill, decode]
// the loads straddle the split's surcharge Δ = prefill + migration + decode
// − full, so every (prompt, budget) row passes through the tie, which goes
// to mixed. On two replicas of each role the loads pick the replica within
// each side, ties to the lowest index, under a round-robin policy that
// generations under roles ignore.
func pinPlacements(t *testing.T, b *strings.Builder) {
	cost := sched.BuildCachedCost(func(l, b int) time.Duration {
		return time.Duration(30e3 + float64(l*b)*700 + float64(l*l*b)*4.5)
	}, 128, 4, 16).Fit()
	gen := func(n int) []*Server {
		out := make([]*Server, n)
		for i := range out {
			out[i], _ = handoffGenServer(t)
			t.Cleanup(out[i].Close)
		}
		return out
	}
	m, p, d := RoleMixed, RolePrefill, RoleDecode

	rt, err := NewRouter(RouterConfig{Cost: cost, Roles: []ReplicaRole{m, p, d}}, gen(3)...)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(b, "place roles=[mixed prefill decode]: one plan per load [m p d] in {0,Δ-1,Δ,Δ+1,2Δ+7}×{0,1}×{0,3}")
	for _, prompt := range []int{1, 8, 48, 130} {
		for _, budget := range []int{1, 8, 64} {
			full := int64(cost.RequestCost(prompt, budget))
			split := int64(cost.PrefillCost(prompt)) + int64(migrationPrice(rt.handoffBytesEstimate(prompt))) + int64(cost.DecodeCost(prompt, budget))
			delta := split - full
			var plans []string
			for _, lm := range []int64{0, delta - 1, delta, delta + 1, 2*delta + 7} {
				for _, lp := range []int64{0, 1} {
					for _, ld := range []int64{0, 3} {
						setGauges(rt, []int64{0, 0, 0}, []int64{lm, lp, ld})
						plans = append(plans, planString(rt, rt.planGenerate(prompt, budget)))
					}
				}
			}
			fmt.Fprintf(b, "place p%d/n%d Δ=%d: %s\n", prompt, budget, delta, strings.Join(plans, " "))
		}
	}

	rt, err = NewRouter(RouterConfig{Cost: cost, Roles: []ReplicaRole{m, p, d, m, p, d}}, gen(6)...)
	if err != nil {
		t.Fatal(err)
	}
	const prompt, budget = 48, 8
	delta := int64(cost.PrefillCost(prompt)) + int64(migrationPrice(rt.handoffBytesEstimate(prompt))) +
		int64(cost.DecodeCost(prompt, budget)) - int64(cost.RequestCost(prompt, budget))
	fmt.Fprintf(b, "place roles=[mixed prefill decode mixed prefill decode] p%d/n%d: loads [m0 m3 p1 p4 d2 d5], K=Δ+3\n", prompt, budget)
	k := delta + 3
	for _, ms := range [][2]int64{{0, 0}, {k, 0}, {0, k}, {k, k}} {
		for _, ps := range [][2]int64{{0, 0}, {1, 0}, {0, 1}} {
			var plans []string
			for _, ds := range [][2]int64{{0, 0}, {1, 0}, {0, 1}} {
				setGauges(rt, make([]int64, 6), []int64{ms[0], ps[0], ds[0], ms[1], ps[1], ds[1]})
				plans = append(plans, planString(rt, rt.planGenerate(prompt, budget)))
			}
			fmt.Fprintf(b, "place m=%v p=%v d∈{[0 0],[1 0],[0 1]}: %s\n", ms, ps, strings.Join(plans, " "))
		}
	}
}

// pinVictims records the replica RemoveReplica retires from three, over
// every in-flight vector in {0,1}³ and a set of priced-load vectors. Each
// removal is replaced by a fresh replica so the fleet stays at three.
func pinVictims(t *testing.T, engine *core.Engine, b *strings.Builder) {
	rt, err := NewRouter(RouterConfig{Policy: LeastQueue}, pinServers(t, engine, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	// Gauges are set by hand, so nothing will ever drain them: a cancelled
	// context lets RemoveReplica skip its wait for the victim's in-flight
	// jobs.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	loads := [][]int64{{0, 0, 0}, {9, 0, 0}, {0, 9, 0}, {0, 0, 9}, {9, 9, 0}, {0, 9, 9}, {9, 0, 9}}
	fmt.Fprintf(b, "victim: one index per load vector %v\n", loads)
	for _, inflight := range [][]int64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}} {
		var picks strings.Builder
		for _, load := range loads {
			setGauges(rt, inflight, load)
			before := append([]*replica(nil), rt.replicas...)
			srv, _ := rt.RemoveReplica(done)
			victim := -1
			for i, r := range before {
				if r.srv == srv {
					victim = i
				}
			}
			fmt.Fprint(&picks, victim)
			if err := rt.AddReplica(pinServers(t, engine, 1)[0]); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(b, "victim inflight=%v: %s\n", inflight, picks.String())
	}
}

// TestDecisionPins holds the live Router's fleet decisions to
// testdata/decisions.txt: each policy's pick over a grid of in-flight and
// priced-load gauges and round-robin turns, the classify candidates under
// role lists, planGenerate's placement over a (loads, prompt, budget) grid,
// and the replica RemoveReplica retires. Every line is read off a live
// Router, so moving where a decision is made must leave the file unchanged.
// The package's -update flag rewrites it.
func TestDecisionPins(t *testing.T) {
	engine, err := core.NewEngine(model.BertBase().Scaled(32, 4, 64, 2), core.Options{Seed: 1, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	pinPicks(t, engine, &b)
	pinClassifyCandidates(t, engine, &b)
	pinPlacements(t, &b)
	pinVictims(t, engine, &b)
	got := b.String()

	if *updatePlanPrices {
		if err := os.WriteFile(decisionFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(decisionFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", decisionFile, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s has %d lines, the pins print %d", decisionFile, len(w), len(g))
	}
}
