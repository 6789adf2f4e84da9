package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// slowModeled are the goldens -short leaves to the full run: the serving
// simulations that dominate the package's wall time (and that -race makes
// several times slower).
var slowModeled = map[string]bool{
	"fig8": true, "fig15": true, "table4": true, "fig16": true, "table5": true,
	"autoscale": true, "extra-cluster": true, "replica-routing": true, "disagg-routing": true,
}

func goldenPath(id string) string { return filepath.Join("testdata", id+".txt") }

// TestModeledGoldens pins the modeled evaluation byte for byte: each
// testdata/<id>.txt is what `turbo-bench -run <id> -out testdata/<id>.txt`
// writes, and the experiment must print exactly that again. The files are
// also the repository's paper-vs-measured record — every one opens with the
// paper's reported result. To change one on purpose, regenerate it with
// that command and commit the diff.
func TestModeledGoldens(t *testing.T) {
	for _, e := range All() {
		if e.Live {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slowModeled[e.ID] {
				t.Skip("serving simulations are slow; skipped in -short mode")
			}
			want, err := os.ReadFile(goldenPath(e.ID))
			if err != nil {
				t.Fatal(err)
			}
			got := runExperiment(t, e.ID)
			if got == string(want) {
				return
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("%s differs from %s at line %d:\n got: %q\nwant: %q", e.ID, goldenPath(e.ID), i+1, g, w)
				}
			}
		})
	}
}

// TestEveryExperimentChoosesASide: an experiment is modeled — and then has a
// golden file — or it is tagged Live and has none. A new experiment fails
// here until it picks one; so does a golden file whose experiment is gone.
func TestEveryExperimentChoosesASide(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	orphans := map[string]bool{}
	for _, f := range files {
		orphans[f] = true
	}
	for _, e := range All() {
		_, err := os.Stat(goldenPath(e.ID))
		delete(orphans, goldenPath(e.ID))
		switch {
		case e.Live && err == nil:
			t.Errorf("%s is tagged Live but has a golden file: its output cannot be byte-stable", e.ID)
		case !e.Live && err != nil:
			t.Errorf("%s is not tagged Live and has no golden file; generate it with `turbo-bench -run %s -out internal/bench/%s`", e.ID, e.ID, goldenPath(e.ID))
		}
	}
	for f := range orphans {
		t.Errorf("%s belongs to no registered experiment", f)
	}
}

// TestExperimentsShareCostsAcrossGoroutines: turbo.RunExperiment is an
// exported entry point, and fig15 and table4 build and read the same
// memoized cost dictionaries and saturation probes. Run under -race.
func TestExperimentsShareCostsAcrossGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("serving simulations are slow; skipped in -short mode")
	}
	var wg sync.WaitGroup
	for _, id := range []string{"fig15", "table4"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _ := ByID(id)
			var buf bytes.Buffer
			if err := RunOne(&buf, e); err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			if want, err := os.ReadFile(goldenPath(id)); err != nil || buf.String() != string(want) {
				t.Errorf("%s run beside another experiment differs from its golden file (read err %v)", id, err)
			}
		}()
	}
	wg.Wait()
}
