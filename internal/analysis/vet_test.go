package analysis_test

import (
	"path/filepath"
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
