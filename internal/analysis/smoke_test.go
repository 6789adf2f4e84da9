package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// TestRepoClean is the gate the CI job enforces: the full turbo-vet suite
// over the whole module — the per-package analyzers and the module-level
// testonly check, on one load — must come back empty. Every invariant the
// analyzers encode is live on the real tree — a regression in serving,
// sched, bench, autoscale, or allocator, or a function only tests reach,
// fails this test with the exact file:line and the directive syntax to use
// if the violation is deliberate.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Vet(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
