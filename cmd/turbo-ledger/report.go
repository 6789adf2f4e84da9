package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

const ledgerSchema = "turbo-ledger/v1"

// ledger is the -out document: where it was measured, every run, and per
// workload the median and quartiles of each metric over the runs.
type ledger struct {
	Schema    string        `json:"schema"`
	Env       envBlock      `json:"env"`
	Workloads []ledgerEntry `json:"workloads"`
}

type envBlock struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmS      float64 `json:"warm_s"`
	PacedS     float64 `json:"paced_s"`
	SatS       float64 `json:"sat_s"`
}

func environment(seed int64, seconds float64) envBlock {
	ph := phasesFor(seconds)
	env := envBlock{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds,
		WarmS: ph.Warm.Seconds(), PacedS: ph.Paced.Seconds(), SatS: ph.Sat.Seconds(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func (l ledger) writeFile(path string) error {
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (ledger, error) {
	var l ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return l, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, ledgerSchema)
	}
	return l, nil
}

// ledgerEntry is one workload's runs and their summary.
type ledgerEntry struct {
	Name     string      `json:"name"`
	Runs     []runResult `json:"runs"`
	EndToEnd []summary   `json:"end_to_end,omitempty"`
	PerLayer []summary   `json:"per_layer,omitempty"`
}

// summary is one metric over the runs of a workload: the median, and the
// first and third quartile as Python's statistics.quantiles(values, n=4)
// gives them (equal to the median when there is one run).
type summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Tag    string  `json:"tag"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
	N      int     `json:"n,omitempty"` // samples behind the value in the last run
	Null   bool    `json:"null,omitempty"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

func summarize(runs []runResult, pick func(runResult) []metric) []summary {
	var out []summary
	for i, m := range pick(runs[len(runs)-1]) {
		s := summary{Name: m.Name, Unit: m.Unit, Tag: m.Tag, Runs: len(runs), N: m.N}
		var vals []float64
		for _, r := range runs {
			if v := pick(r)[i]; v.Null {
				s.Null = true
			} else {
				vals = append(vals, v.Value)
			}
		}
		if !s.Null {
			s.Median = median(vals)
			s.Q1, s.Q3 = quartiles(vals)
		}
		out = append(out, s)
	}
	return out
}

func (e *ledgerEntry) summarize() {
	e.EndToEnd = summarize(e.Runs, func(r runResult) []metric { return r.EndToEnd })
	e.PerLayer = summarize(e.Runs, func(r runResult) []metric { return r.PerLayer })
}

// quartiles follows statistics.quantiles(values, n=4), the exclusive method.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		d := float64(i*m - j*n)
		return (s[j-1]*(n-d) + s[j]*d) / n
	}
	return at(1), at(3)
}

// print writes the workload's report: request accounting per phase, then
// every metric by name with its unit, tag and sample count.
func (e ledgerEntry) print(w io.Writer) {
	last := e.Runs[len(e.Runs)-1]
	fmt.Fprintf(w, "== %s  runs=%d  sha256=%s  slowness=%.3f\n", e.Name, len(e.Runs), last.SHA256, last.Slowness)
	phases := make([]string, 0, len(last.Phases))
	for name := range last.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		pc := last.Phases[name]
		fmt.Fprintf(w, "   phase %-7s sent=%d succeeded=%d failed=%d\n", name, pc.Sent, pc.Succeeded, pc.Failed)
	}
	printSummaries(w, "end-to-end", e.EndToEnd)
	printSummaries(w, "per-layer", e.PerLayer)
	for _, r := range e.Runs {
		for _, warn := range r.Warnings {
			fmt.Fprintf(w, "   warning: %s\n", warn)
		}
	}
}

func printSummaries(w io.Writer, title string, list []summary) {
	if len(list) == 0 {
		return
	}
	fmt.Fprintf(w, "   %s:\n", title)
	for _, s := range list {
		switch {
		case s.Null:
			fmt.Fprintf(w, "     %-34s %14s %-8s [%s]\n", s.Name, "null", s.Unit, s.Tag)
		case s.Runs > 1:
			fmt.Fprintf(w, "     %-34s %14.4f %-8s [%s] n=%d  q1=%.4f q3=%.4f spread=%.3f\n",
				s.Name, s.Median, s.Unit, s.Tag, s.N, s.Q1, s.Q3, s.spread())
		default:
			fmt.Fprintf(w, "     %-34s %14.4f %-8s [%s] n=%d\n", s.Name, s.Median, s.Unit, s.Tag, s.N)
		}
	}
}

// contractLine is the one JSON object a benchmark driver reads off the last
// line of standard output. A null metric reads 0 there.
func (r runResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range append(append([]metric(nil), r.EndToEnd...), r.PerLayer...) {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// compareLedgers prints one row per workload × end-to-end metric: ok,
// regressed (the new median is worse than the old by more than the metric's
// bound) or unresolved (either side's quartile spread is wider than the
// bound, so the runs cannot tell). A metric the old ledger has and the new
// one lost counts as regressed. It returns 1 when anything regressed.
func compareLedgers(w io.Writer, oldPath, newPath string) int {
	var ledgers [2]ledger
	for i, path := range []string{oldPath, newPath} {
		var err error
		if ledgers[i], err = readLedger(path); err != nil {
			fmt.Fprintf(os.Stderr, "turbo-ledger: %v\n", err)
			return 2
		}
	}
	return compare(w, ledgers[0], ledgers[1])
}

func compare(w io.Writer, oldL, newL ledger) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, ne := range newL.Workloads {
		var oe *ledgerEntry
		for i := range oldL.Workloads {
			if oldL.Workloads[i].Name == ne.Name {
				oe = &oldL.Workloads[i]
			}
		}
		if oe == nil {
			fmt.Fprintf(w, "%-18s only in the new ledger\n", ne.Name)
			continue
		}
		for _, def := range endToEndDefs {
			o, okOld := findSummary(oe.EndToEnd, def.Name)
			n, okNew := findSummary(ne.EndToEnd, def.Name)
			switch {
			case !okOld:
				fmt.Fprintf(w, "%-18s %-16s no old value to compare with\n", ne.Name, def.Name)
				continue
			case !okNew:
				// The change took the metric's source away: it cannot pass unseen.
				fmt.Fprintf(w, "%-18s %-16s %12.4f %12s %8s %6s  regressed\n", ne.Name, def.Name, o.Median, "null", "", "")
				code = 1
				continue
			}
			// worse is how far the new median moved in the bad direction.
			worse := ratio(n.Median-o.Median, o.Median)
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case o.spread() > def.Bound || n.spread() > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				ne.Name, def.Name, o.Median, n.Median, 100*ratio(n.Median-o.Median, o.Median), 100*def.Bound, verdict)
		}
	}
	return code
}

func findSummary(list []summary, name string) (summary, bool) {
	for _, s := range list {
		if s.Name == name && !s.Null {
			return s, true
		}
	}
	return summary{}, false
}
