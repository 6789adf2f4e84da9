// Command turbo-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	turbo-bench -list             # enumerate artefacts
//	turbo-bench -run fig5,fig14   # regenerate selected artefacts
//	turbo-bench                   # regenerate everything (paper order)
//	turbo-bench -out results.txt  # write to a file instead of stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	turbo "repro"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	out := flag.String("out", "", "output file (default: stdout)")
	jsonOut := flag.String("json", "", "also write the key metrics of the executed modeled experiments as machine-readable JSON")
	flag.Parse()

	if *list {
		for _, id := range turbo.Experiments() {
			fmt.Println(id)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *run == "" {
		if err := turbo.RunAllExperiments(w); err != nil {
			fatal(err)
		}
		writeMetrics(*jsonOut)
		return
	}
	for _, id := range strings.Split(*run, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if err := turbo.RunExperiment(id, w); err != nil {
			fatal(err)
		}
	}
	writeMetrics(*jsonOut)
}

// writeMetrics persists the key metrics recorded by the experiments that
// just ran (no-op without -json).
func writeMetrics(path string) {
	if path == "" {
		return
	}
	if err := turbo.WriteBenchMetrics(path); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "turbo-bench: wrote metrics to", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "turbo-bench:", err)
	os.Exit(1)
}
