// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a named runner that prints the same
// rows/series the paper reports; cmd/turbo-bench and the repository-root
// benchmarks both dispatch through this registry.
//
// An experiment is one of two kinds. A modeled one (cudasim / perf /
// simclock / servingsim) is a pure function of its constants: its output is
// committed as testdata/<id>.txt — the paper-vs-measured record for that
// ID — and TestModeledGoldens compares it byte for byte. A Live one runs
// real engines against the wall clock: it prints what it measured, carries
// no PASS/FAIL on a timing, records no metric, and no test asserts on its
// timings. Live numbers that gate anything come from cmd/turbo-ledger.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the paper artefact name: "table2", "fig5", ...
	ID string
	// Title summarises what the artefact shows.
	Title string
	// Paper summarises the paper's reported result for comparison.
	Paper string
	// Live marks an experiment that reads the wall clock, so its output
	// differs run to run; every other experiment is modeled and has a
	// golden file under testdata/.
	Live bool
	// Run writes the regenerated rows/series to w.
	Run func(w io.Writer) error
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return artefactOrder(out[i].ID) < artefactOrder(out[j].ID) })
	return out
}

// artefactOrder sorts table1, table2, fig5..fig16, table4, table5 in the
// order they appear in the paper.
func artefactOrder(id string) int {
	order := map[string]int{
		"table1": 1, "table2": 2, "fig5": 3, "fig6": 4, "fig7": 5, "fig8": 6,
		"fig9": 7, "fig10": 8, "fig11": 9, "fig12": 10, "fig13": 11,
		"fig14": 12, "fig15": 13, "table4": 14, "fig16": 15, "table5": 16,
		"gen-serving": 17, "var-length": 18, "replica-routing": 19,
		"prefix-cache": 20, "fp16-path": 21, "disagg-routing": 22, "autoscale": 23,
	}
	if o, ok := order[id]; ok {
		return o
	}
	return 100
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, writing a header per artefact.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(w, e); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// RunOne executes a single experiment with its banner.
func RunOne(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "%s\n%s — %s\n", strings.Repeat("=", 72), strings.ToUpper(e.ID), e.Title)
	fmt.Fprintf(w, "paper: %s\n%s\n", e.Paper, strings.Repeat("-", 72))
	if err := e.Run(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// table is a small helper around tabwriter for aligned experiment output.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprint(c)
	}
	fmt.Fprintln(t.tw, strings.Join(parts, "\t"))
}

func (t *table) flush() { t.tw.Flush() }

// ms formats a duration-in-seconds as milliseconds.
func ms(seconds float64) string {
	return fmt.Sprintf("%.2f", seconds*1e3)
}
