// Command turbo-vet runs the repo's domain-specific static analyzers — the
// invariants nine PRs of review have enforced by hand, as build failures:
//
//	go run ./cmd/turbo-vet ./...
//
// Findings print as file:line:col: analyzer: message and the process exits
// 1 when any survive. Deliberate violations are suppressed in place:
//
//	//turbovet:allow <analyzer>[,<analyzer>...] -- reason
//
// on the offending line or the line directly above. Run it from inside the
// module (package loading resolves imports through the go tool). The
// module-level testonly check runs only when the patterns include ./...,
// the whole module; the per-package analyzers run on any patterns. See
// `turbo-vet -help` for the analyzer roster.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	help := flag.Bool("help", false, "print the analyzer roster and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: turbo-vet [packages]\n\nruns the turbo-vet analyzer suite over the given go-list patterns\n(default ./...) and exits 1 on findings\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *help {
		for _, a := range analysis.All() {
			fmt.Printf("%s\n\t%s\n\n", a.Name, a.Doc)
		}
		fmt.Printf("%s\n\t%s\n\n", analysis.TestOnlyName, analysis.TestOnlyDoc)
		return
	}

	root, err := analysis.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbo-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Vet(root, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbo-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "turbo-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
