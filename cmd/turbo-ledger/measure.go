package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// runResult is one workload's run: the end-to-end pass, the traced pass, or
// both, with the request accounting the contract line is built from.
type runResult struct {
	Workload  string                `json:"workload"`
	SHA256    string                `json:"sha256"`
	Phases    map[string]phaseCount `json:"phases"`
	EndToEnd  []metric              `json:"end_to_end,omitempty"`
	PerLayer  []metric              `json:"per_layer,omitempty"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Warnings  []string              `json:"warnings,omitempty"`
	// Slowness is wall time over reference time across the timed part of the
	// last pass: how slow the machine was against the reference one.
	Slowness float64 `json:"slowness"`

	spans []span // the traced pass's spans, for -trace-out
}

func (r *runResult) count(phase string, pc phaseCount, problems []string) {
	r.Phases[phase] = pc
	r.Attempted += pc.Sent
	r.Failed += pc.Failed
	for _, p := range problems {
		r.Warnings = append(r.Warnings, phase+": "+p)
	}
}

// measureEndToEnd is the untraced pass: the timed set-ups, a warm-up, the
// paced open loop, the closed-loop saturation, then — outside every timed
// phase — parsing and the oracle. Every time is reference time (clock.go),
// and every statistic is over all requests of its phase.
func measureEndToEnd(ctx context.Context, w workload, seed int64, seconds float64, sc scale, res *runResult) error {
	ph := phasesFor(seconds)
	tr := w.generate(seed, ph)
	res.SHA256 = tr.SHA256

	// setup_s is the median of setUps set-ups, one after the other before any
	// request is sent: each is stopped before the next is built, and the last
	// one serves the run.
	var sys *system
	var setups []float64
	for i := 0; i < setUps; i++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return fmt.Errorf("stop set-up %d: %w", i, err)
			}
		}
		start := now()
		built, err := buildSystem(w.Build, sc)
		if err != nil {
			return err
		}
		setups = append(setups, since(start).Seconds())
		sys = built
	}

	wallStart, refStart := time.Now(), now()
	runOpenLoop(ctx, sys, tr.Warm, nil)
	paced := runOpenLoop(ctx, sys, tr.Paced, nil)
	sat := runClosedLoop(ctx, sys.handler, tr.Sat, ph.Sat)
	res.Slowness = float64(time.Since(wallStart)) / float64(since(refStart))
	if err := sys.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}

	or, err := newOracle(w.Build)
	if err != nil {
		return err
	}
	outs, counts, problems := checkReplies(ctx, or, rand.New(rand.NewSource(seed)), sc.OracleMin, paced.replies, sat.replies)
	pacedOuts := outs[0]
	res.count("paced", counts[0], nil)
	res.count("sat", counts[1], problems)

	set := newMetricSet(endToEndDefs)
	set.set("setup_s", median(setups), len(setups))
	lat := sortedMS(sinceDue(pacedOuts, lastByte))
	set.set("lat_p50_ms", percentile(lat, 0.50), len(lat))
	ttft := sortedMS(sinceDue(pacedOuts, firstByte))
	set.set("ttft_p50_ms", percentile(ttft, 0.50), len(ttft))
	set.set("sat_req_per_s", float64(counts[1].Succeeded)/sat.elapsed.Seconds(), counts[1].Succeeded)
	set.set("slo_ok_share", 1-sloMissShare(pacedOuts), len(pacedOuts))
	res.EndToEnd = set.list()
	res.Warnings = append(res.Warnings, set.warnings...)
	res.Warnings = append(res.Warnings, backlogWarning(paced)...)
	if sat.ranDry {
		res.Warnings = append(res.Warnings, "sat: the request list ran dry before the phase ended, so sat_req_per_s reads low; lengthen it in workload.generate")
	}
	return nil
}

func lastByte(o outcome) time.Time  { return o.last }
func firstByte(o outcome) time.Time { return o.first }

// sloMissShare is the share of requests sent that missed their latency
// limit: classify due→last byte over classifyLimit; generate due→first
// token over ttftLimit or a mean token gap over tokenGapLimit. A failed
// request misses.
func sloMissShare(outs []outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	miss := 0
	for _, o := range outs {
		switch {
		case o.err != nil:
			miss++
		case o.rep.req.Kind == kindClassify:
			if o.last.Sub(o.rep.due) > classifyLimit {
				miss++
			}
		default:
			gap := time.Duration(0)
			if n := len(o.tokenTimes); n > 1 {
				gap = o.tokenTimes[n-1].Sub(o.tokenTimes[0]) / time.Duration(n-1)
			}
			if o.first.Sub(o.rep.due) > ttftLimit || gap > tokenGapLimit {
				miss++
			}
		}
	}
	return float64(miss) / float64(len(outs))
}

// backlogWarning reports an open-loop phase whose backlog was still growing
// when its schedule ended: the committed rate is then above what this machine
// sustains, and the latencies describe a queue, not the system. Both counts
// are taken by the generator as it launches, so the drain after the last
// launch is not in them.
func backlogWarning(p phaseResult) []string {
	if p.inFlightEnd > p.inFlightMid+8 {
		return []string{fmt.Sprintf("paced: growing backlog (%d requests in flight mid-schedule, %d at its end)", p.inFlightMid, p.inFlightEnd)}
	}
	return nil
}

// tokenGaps pools the gaps between consecutive token chunks of every
// successful stream, in milliseconds, sorted.
func tokenGaps(outs []outcome) []float64 {
	var gaps []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		for i := 1; i < len(o.tokenTimes); i++ {
			gaps = append(gaps, ms(o.tokenTimes[i].Sub(o.tokenTimes[i-1])))
		}
	}
	sort.Float64s(gaps)
	return gaps
}
