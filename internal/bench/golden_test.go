package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// slowModeled are the goldens -short leaves to the full run: the serving
// simulations that dominate the package's wall time (and that -race makes
// several times slower).
var slowModeled = map[string]bool{
	"fig8": true, "fig15": true, "table4": true, "fig16": true, "table5": true,
	"autoscale": true, "extra-cluster": true,
}

// TestModeledGoldens pins the modeled evaluation byte for byte: each
// testdata/<id>.txt is what `turbo-bench -run <id> -out testdata/<id>.txt`
// writes, and the experiment must print exactly that again. The files are
// also the repository's paper-vs-measured record — every one opens with the
// paper's reported result. To change one on purpose, regenerate it with
// that command and commit the diff.
func TestModeledGoldens(t *testing.T) {
	files, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files under testdata/ (err %v)", err)
	}
	for _, file := range files {
		id := strings.TrimSuffix(filepath.Base(file), ".txt")
		t.Run(id, func(t *testing.T) {
			if testing.Short() && slowModeled[id] {
				t.Skip("serving simulations are slow; skipped in -short mode")
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			got := runExperiment(t, id)
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
					t.Fatalf("%s differs from %s at line %d:\n got: %q\nwant: %q", id, file, i+1, g, w)
				}
			}
		})
	}
}
