package analysis

import "go/ast"

// wallclockPackages are the packages whose results must be reproducible on
// the virtual clock: the bench experiments (modeled latencies, simulated
// traces), the serving simulator, the schedulers (priced in modeled cost,
// driven by the serving loop), the autoscale controller (tick-driven off
// simulated signals), and the graph executor (plan timings feed the memory
// experiments). Wall-clock reads in these packages make runs
// machine-dependent and flaky; deliberate live measurements carry a
// //turbovet:allow wallclock directive instead.
var wallclockPackages = map[string]bool{
	"repro/internal/bench":      true,
	"repro/internal/servingsim": true,
	"repro/internal/sched":      true,
	"repro/internal/autoscale":  true,
	"repro/internal/graph":      true,
}

// wallclockBanned are the time-package functions that read or wait on the
// wall clock. Constructors like time.Date or arithmetic like time.Duration
// stay allowed — only ambient "what time is it now" escapes the simulation.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock forbids ambient wall-clock reads in simulation-bound code.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: `forbid time.Now/Sleep/Since in simulation-bound packages

Bench experiments, schedulers, the autoscale controller, graph plan timing,
and the serving simulator must run on the virtual clock (internal/simclock)
or on modeled costs so results replay bit-identically and faster than real
time. Deliberate live measurements are annotated:
//turbovet:allow wallclock -- <why this read is live>`,
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if !wallclockPackages[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := pass.PkgFunc(sel, "time"); wallclockBanned[name] {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock in simulation-bound code; use the virtual clock (internal/simclock) or modeled cost, or annotate a deliberate live measurement with //turbovet:allow wallclock", name)
			}
			return true
		})
	}
	return nil
}
