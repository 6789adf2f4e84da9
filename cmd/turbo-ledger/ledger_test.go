package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// toyScale shrinks the cost warm-up and the probes so all four workloads run
// both passes in a few seconds; the system under test keeps its geometry.
var toyScale = scale{WarmLen: 24, WarmBatch: 2, WarmStride: 23,
	OracleMin: 2, ProbeReqs: 4, SoloProbes: 2, ProbeReps: 1, StepCap: 4}

// toySeconds is the toy run's length on the calm machine. Phases are wall
// time and schedules reference time, so under the race detector, where the
// clock's unit runs ten times slower, the same schedule needs ten times as
// long: toyRunSeconds scales it by the slowness of the moment.
const toySeconds = 0.25

func toyRunSeconds() float64 { return toySeconds * math.Max(1, slowness()) }

// TestMain runs the tests as the command runs: on one P, under the reference
// clock.
func TestMain(m *testing.M) {
	stop := startClock()
	code := m.Run()
	stop()
	os.Exit(code)
}

// TestClockFollowsTheWallClock pins the reference clock's promises: it never
// runs backwards, it advances by wall time over slowness (under the race
// detector the unit, and so the clock, is some twenty times slower), and
// sleepUntil returns at the time it was given.
func TestClockFollowsTheWallClock(t *testing.T) {
	wall, ref := time.Now(), now()
	prev := ref
	for time.Since(wall) < 50*time.Millisecond {
		n := now()
		if n.Before(prev) {
			t.Fatalf("reference clock ran backwards: %v after %v", n, prev)
		}
		prev = n
		runtime.Gosched()
	}
	t.Logf("slowness %.3f: one warm unit takes %.0f ns, refUnitTime is %v", slowness(), slowness()*float64(refUnitTime), refUnitTime)
	if r := slowness() * float64(since(ref)) / float64(time.Since(wall)); r < 0.5 || r > 2 {
		t.Errorf("reference time × slowness ran at %.2f of wall time (slowness %.2f)", r, slowness())
	}
	at := now().Add(3 * time.Millisecond)
	if !sleepUntil(at, time.Now().Add(time.Minute)) {
		t.Error("sleepUntil gave up a minute before its deadline")
	}
	if late := since(at); late < 0 || late > 50*time.Millisecond {
		t.Errorf("sleepUntil returned %v after the time it was given", late)
	}
	if sleepUntil(now().Add(time.Hour), time.Now().Add(time.Millisecond)) {
		t.Error("sleepUntil slept past its deadline")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	ph := phasesFor(4)
	for _, w := range workloads {
		a, b, other := w.generate(1, ph), w.generate(1, ph), w.generate(2, ph)
		if a.SHA256 != b.SHA256 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different request lists", w.Name)
		}
		if a.SHA256 == other.SHA256 {
			t.Errorf("%s: seeds 1 and 2 generated the same request list", w.Name)
		}
		if len(a.Paced.reqs) == 0 || len(a.Paced.reqs) != len(a.Paced.due) || len(a.Sat) == 0 {
			t.Errorf("%s: empty or unscheduled traffic: %d paced, %d due times, %d sat", w.Name, len(a.Paced.reqs), len(a.Paced.due), len(a.Sat))
		}
	}
	unshared, _ := workloadByName("generate-unshared")
	fp16, _ := workloadByName("generate-fp16")
	if unshared.generate(3, ph).SHA256 != fp16.generate(3, ph).SHA256 {
		t.Error("generate-fp16 must receive byte-identical traffic to generate-unshared")
	}
}

// TestStratifiedMix pins what makes seeds comparable: every seed offers the
// same number of long requests and the same token budgets.
func TestStratifiedMix(t *testing.T) {
	varlen, _ := workloadByName("classify-varlen")
	for seed := int64(1); seed <= 3; seed++ {
		sat := varlen.generate(seed, phasesFor(10)).Sat
		long := 0
		for _, q := range sat[:200] {
			if len(q.Text) >= 192 {
				long++
			}
		}
		if long != 20 {
			t.Errorf("seed %d: %d long requests in the first 200, want 20", seed, long)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %q: %q", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %+v", i, got, d)
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"cmd/turbo-ledger"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
}

// TestToyRun drives all four workloads through both passes at toy size and
// checks that exactly the metrics of BENCHMARK.json come out, finite and
// with their units, and that every answer matched the oracle.
func TestToyRun(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	start := time.Now()
	ctx := context.Background()
	for _, w := range workloads {
		began := time.Now()
		res, err := runWorkload(ctx, w, 1, toyRunSeconds(), toyScale, "both")
		t.Logf("%s: %v", w.Name, time.Since(began))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkSpansAreTheRunsOwn(t, res)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, res.Attempted, res.Failed, res.Warnings)
		}
		var line struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		if !line.Correct {
			t.Errorf("%s: contract line says incorrect", w.Name)
		}
		for name, unit := range want {
			got, ok := line.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.Name, name)
			case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
				t.Errorf("%s: metric %s is not a finite number", w.Name, name)
			case got.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, want %q", w.Name, name, got.Unit, unit)
			}
		}
		for name := range line.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", w.Name, name)
			}
		}
		for _, m := range append(append([]metric(nil), res.EndToEnd...), res.PerLayer...) {
			if m.Null {
				t.Errorf("%s: %s is null at the seed: %v", w.Name, m.Name, res.Warnings)
			}
		}
		for _, m := range res.EndToEnd {
			// A measured time is never 0. The two shares of work can be at toy
			// size: the saturation window (0.05 s) can end before the first
			// stream does, and under the race detector every request misses
			// its limit. At the committed run length neither happens.
			if m.Value == 0 && m.Name != "sat_req_per_s" && m.Name != "slo_ok_share" {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
	}
	t.Logf("four workloads, both passes: %v", time.Since(start))
}

// checkSpansAreTheRunsOwn pins that a run's per-layer sums see that run's
// spans only, however many runs and workloads came before it in the process
// (TestToyRun runs four, as the default command does): one core.classify
// span per replayed batch, and core.classify_us_per_tok equal to what those
// spans alone give.
func checkSpansAreTheRunsOwn(t *testing.T, res *runResult) {
	t.Helper()
	perLayer := map[string]metric{}
	for _, m := range res.PerLayer {
		perLayer[m.Name] = m
	}
	batches, perTok := perLayer["core.classify_self_us"].N, perLayer["core.classify_us_per_tok"]
	spans := 0
	var classify time.Duration
	for _, s := range res.spans {
		if s.Name == "core.classify" {
			spans++
			classify += time.Duration(s.End - s.Start)
		}
	}
	if spans != batches {
		t.Errorf("%s: %d core.classify spans for %d replayed batches", res.Workload, spans, batches)
	}
	if batches == 0 {
		return // a generate-only workload replays no classify batch
	}
	if want := us(classify) / float64(perTok.N); math.Abs(perTok.Value-want) > 1e-9*want {
		t.Errorf("%s: core.classify_us_per_tok = %v, the run's own spans give %v", res.Workload, perTok.Value, want)
	}
}

// TestBacklogWarning pins that the backlog check reads the schedule, not the
// drain after it.
func TestBacklogWarning(t *testing.T) {
	if w := backlogWarning(phaseResult{inFlightMid: 3, inFlightEnd: 11}); w != nil {
		t.Errorf("8 more in flight at the end than mid-schedule is within the limit: %v", w)
	}
	if w := backlogWarning(phaseResult{inFlightMid: 3, inFlightEnd: 12}); w == nil {
		t.Error("9 more in flight at the end than mid-schedule must warn")
	}
}

// TestMissingStatsKeysGiveNulls pins the robustness rule: a /v1/stats that
// lost its keys costs per-layer values, never the run.
func TestMissingStatsKeysGiveNulls(t *testing.T) {
	set := newMetricSet(perLayerDefs)
	empty := phaseResult{before: map[string]any{}, after: map[string]any{}}
	servingMetrics(set, empty, nil)
	routerMetrics(set, empty, nil, nil)
	for _, name := range []string{"serving.batch_size_mean", "serving.prefix_hit_share", "serving.rejected"} {
		if m := set.got[name]; !m.Null {
			t.Errorf("%s = %+v, want null", name, m)
		}
	}
	if len(set.warnings) == 0 {
		t.Error("nulls must come with warnings")
	}
	res := runResult{PerLayer: set.list()}
	if !strings.Contains(res.contractLine(), `"serving.batch_size_mean":{"value":0,`) {
		t.Error("a null metric must read 0 on the contract line")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; want 1, 3", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	entry := func(lat, q1, q3, sat float64) ledger {
		return ledger{Schema: ledgerSchema, Workloads: []ledgerEntry{{Name: "classify-varlen", EndToEnd: []summary{
			{Name: "lat_p50_ms", Median: lat, Q1: q1, Q3: q3},
			{Name: "sat_req_per_s", Median: sat, Q1: sat, Q3: sat},
		}}}}
	}
	bound := func(name string) float64 { return newMetricSet(endToEndDefs).def(name).Bound }
	within, beyond := 1+bound("lat_p50_ms")/2, 1+bound("lat_p50_ms")+0.05
	var out bytes.Buffer
	if code := compare(&out, entry(10, 10, 10, 200), entry(10*within, 10*within, 10*within, 195)); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, entry(10, 10, 10, 200), entry(10*beyond, 10*beyond, 10*beyond, 200)); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("median slower than the bound allows: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, entry(10, 10, 10, 200), entry(10, 10, 10, 200*(1-bound("sat_req_per_s")-0.05))); code != 1 {
		t.Errorf("throughput down by more than the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	lost := entry(10, 10, 10, 200)
	lost.Workloads[0].EndToEnd[0].Null = true
	if code := compare(&out, entry(10, 10, 10, 200), lost); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("metric null only in the new ledger: exit %d\n%s", code, out.String())
	}
	out.Reset()
	wide := 10 * bound("lat_p50_ms")
	if code := compare(&out, entry(10, 10-wide, 10+wide, 200), entry(10*beyond, 10*beyond, 10*beyond, 200)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("old spread wider than the bound: exit %d\n%s", code, out.String())
	}
}
