package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

// Every case here fails without its analyzer's check: the positive wants
// only match when the analyzer fires, the negative files only pass when it
// stays scoped, and the directive lines only pass when suppression works.

func TestWallclock(t *testing.T) {
	// Whole-package scope: bench is simulation-bound.
	analysistest.Run(t, analysis.Wallclock, fixture("wallclock", "bench"), "repro/internal/bench")
	// Identical code outside the simulation-bound set stays silent.
	analysistest.Run(t, analysis.Wallclock, fixture("wallclock", "outofscope"), "repro/internal/model")
}

func TestKVBalance(t *testing.T) {
	analysistest.Run(t, analysis.KVBalance, fixture("kvbalance", "a"), "repro/internal/allocator")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, fixture("ctxflow", "serving"), "repro/internal/serving")
	// cmd/ owns its roots and is not a serving entry point.
	analysistest.Run(t, analysis.CtxFlow, fixture("ctxflow", "cmd"), "repro/cmd/turbo-x")
}

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, analysis.GuardedBy, fixture("guardedby", "a"), "repro/internal/serving")
}

// testonlyPath is the import path of the testonly fixture tree: its
// packages import each other, so they load under their real paths.
const testonlyPath = "repro/internal/analysis/testdata/src/testonly"

func TestTestOnly(t *testing.T) {
	analysistest.RunTestOnly(t, fixture("testonly"), testonlyPath, "lib", "support", "cmd", "other")
}

// TestTestOnlyNeedsWholeModule: a load that leaves out the fixture's cmd
// package holds no caller of lib.Served. Run on that load, the check would
// report it; Vet, seeing patterns that are not the whole module, does not
// run the check at all.
func TestTestOnlyNeedsWholeModule(t *testing.T) {
	pkgs := analysistest.Load(t, fixture("testonly"), testonlyPath, "lib", "other")
	forced := false
	for _, d := range analysis.TestOnly(pkgs) {
		forced = forced || strings.HasPrefix(d.Message, "Served ")
	}
	if !forced {
		t.Fatal("on the partial load the check does not report Served; the case shows nothing")
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(sub string) string {
		return "./" + filepath.ToSlash(filepath.Join("internal", "analysis", fixture("testonly", sub)))
	}
	diags, err := analysis.Vet(root, pattern("lib"), pattern("other"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("partial load reported %s", d)
	}
}
