// Command turbo-ledger is the live serving benchmark: it builds the system
// through the turbo facade, drives it in-process through Service.Handler()
// on four workloads, checks the answers against a solo oracle, and prints
// every end-to-end and per-layer metric by name. README.md has the metric
// glossary and the reason each workload exists.
//
//	go run ./cmd/turbo-ledger -seed 1 -out ledger.json        # all workloads, both passes
//	go run ./cmd/turbo-ledger --workload fleet-faq --seed 3 --seconds 25 --trace 0
//	go run ./cmd/turbo-ledger -compare old.json new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "run one workload (default: all four, one after the other)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives byte-identical requests and schedule")
	seconds := flag.Float64("seconds", 25, "measured wall-clock seconds per pass (warm-up, paced and saturation phases share them)")
	trace := flag.String("trace", "both", "0 = end-to-end pass, 1 = traced per-layer pass, both = one after the other")
	repeat := flag.Int("repeat", 1, "runs per workload; the report gives the median and quartiles of each metric")
	out := flag.String("out", "", "write the ledger (environment, every run, medians and quartiles) to this JSON file")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this JSON file")
	compare := flag.Bool("compare", false, "compare two ledger files given as arguments: old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "turbo-ledger: -compare needs old.json new.json")
			return 2
		}
		return compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *repeat < 1 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(os.Stderr, "turbo-ledger: bad arguments")
		flag.Usage()
		return 2
	}
	ws := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "turbo-ledger: unknown workload %q\n", *workloadName)
			return 2
		}
		ws = []workload{w}
	}

	defer startClock()()
	ctx := context.Background()
	doc := ledger{Schema: ledgerSchema}
	var spans []runSpans
	code := 0
	for _, w := range ws {
		entry := ledgerEntry{Name: w.Name}
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(ctx, w, *seed, *seconds, fullScale, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "turbo-ledger: %s: %v\n", w.Name, err)
				return 1
			}
			if res.Failed > 0 {
				code = 1
			}
			if *traceOut != "" && res.spans != nil {
				spans = append(spans, runSpans{Workload: w.Name, Run: i, Spans: res.spans})
			}
			entry.Runs = append(entry.Runs, *res)
		}
		entry.summarize()
		doc.Workloads = append(doc.Workloads, entry)
		entry.print(os.Stdout)
	}
	if *traceOut != "" && *trace != "0" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "turbo-ledger: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		doc.Env = environment(*seed, *seconds)
		if err := doc.writeFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "turbo-ledger: %v\n", err)
			return 1
		}
	}
	// The last line of standard output is the result of the last run.
	last := doc.Workloads[len(doc.Workloads)-1].Runs
	fmt.Println(last[len(last)-1].contractLine())
	return code
}

// runWorkload runs the passes trace selects on a fresh system each. The
// traced pass gets a recorder of its own: its per-layer metrics are sums over
// the recorder's spans, so a recorder shared between runs would add one run's
// spans to the next run's numbers.
func runWorkload(ctx context.Context, w workload, seed int64, seconds float64, sc scale, trace string) (*runResult, error) {
	res := &runResult{Workload: w.Name, Phases: map[string]phaseCount{}}
	if trace != "1" {
		if err := measureEndToEnd(ctx, w, seed, seconds, sc, res); err != nil {
			return nil, err
		}
	}
	if trace != "0" {
		rec := newRecorder()
		if err := measureLayers(ctx, w, seed, seconds, sc, rec, res); err != nil {
			return nil, err
		}
		res.spans = rec.spans
	}
	return res, nil
}
