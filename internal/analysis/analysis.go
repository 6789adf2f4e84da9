// Package analysis is turbo-vet's analyzer framework: a small, stdlib-only
// re-implementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Diagnostic, an analysistest-style fixture runner in the sibling
// analysistest package) plus a go-list-driven package loader. The container
// this repo builds in has no module proxy access, so the x/tools dependency
// is gated out: the framework keeps the same shape (an Analyzer is a named
// Run func over a type-checked package) and the analyzers would port to the
// real driver by swapping the Pass type alone.
//
// The suite exists to turn review-time invariants from nine PRs of growth
// into build-time failures:
//
//   - wallclock: simulation-bound packages run on the virtual clock, never
//     time.Now (the simclock contract).
//   - kvbalance: Retain/Malloc-style charges are released, handed off, or
//     deliberately annotated (the PR 6 leak class).
//   - ctxflow: serving entry points thread context.Context (the PR 4
//     contract), and context.Background stays in cmd/, examples/, tests.
//   - guardedby: fields annotated "guarded by <mu>" are only touched by
//     functions that lock that mutex.
//
// Those four run package by package. One more check, testonly, runs over
// the whole module at once (TestOnly, a plain function over the loaded
// packages): every function or method of a served package must be reached
// from a main package, an init function or package-level code without
// passing through a _test.go file, and uses inside functions that only
// tests reach do not count. Exempt are main and init; methods of a type
// that implements, by types.Implements, an interface type named in non-test
// code (or fmt.Stringer, which fmt asserts at run time); and test-support
// packages, those no main package reaches through non-test imports. It runs
// only when the load is the whole module (./... from the module root): on a
// subset, a function whose callers sit outside it would read as unused.
// Vet is the one entry point of turbo-vet and TestRepoClean: it loads once
// and runs the analyzers and, on a whole-module load, testonly.
//
// Deliberate violations are suppressed in place with a directive comment on
// the offending line or the line above:
//
//	//turbovet:allow wallclock -- live latency measurement
//	//turbovet:allow kvbalance,guardedby -- ownership handed to caller
//	//turbovet:allow testonly -- a test hook that needs unexported state
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //turbovet:allow directives.
	Name string

	// Doc is the one-paragraph invariant statement shown by
	// `turbo-vet -help`.
	Doc string

	// Run inspects one type-checked package and reports findings via
	// pass.Reportf. Returning an error aborts the whole vet run — reserve
	// it for broken inputs, not findings.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer

	// PkgPath is the import path the package was loaded as. Analyzers
	// self-scope on it (wallclock only fires in simulation-bound packages,
	// ctxflow skips cmd/ and examples/).
	PkgPath string

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgFunc resolves a call-like selector (e.g. time.Now) to a package-level
// function: it returns the function name when expr is `pkg.Name` for the
// given import path, and "" otherwise.
func (p *Pass) PkgFunc(expr ast.Expr, pkgPath string) string {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return ""
	}
	return sel.Sel.Name
}

// directiveRE matches the suppression comment. The analyzer list is
// comma-separated; everything after whitespace or "--" is a free-form
// reason.
var directiveRE = regexp.MustCompile(`^//turbovet:allow\s+([a-z]+(?:\s*,\s*[a-z]+)*)`)

// allowedLines collects, per analyzer name, the file:line positions covered
// by a //turbovet:allow directive. A directive suppresses findings on its
// own line and on the line immediately below, so both trailing and
// preceding placement work:
//
//	start := time.Now() //turbovet:allow wallclock -- live measurement
//
//	//turbovet:allow wallclock -- live measurement
//	start := time.Now()
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	allowed := map[string]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					set := allowed[name]
					if set == nil {
						set = map[string]bool{}
						allowed[name] = set
					}
					set[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
					set[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
				}
			}
		}
	}
	return allowed
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics, sorted by position, with //turbovet:allow
// suppressions applied.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allowed := allowedLines(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			PkgPath:   pkg.Path,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
		}
		set := allowed[a.Name]
		for _, d := range pass.diags {
			if set[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// Check runs the per-package analyzers over every package and, when the
// packages are the whole module, the module-level testonly check, whose
// //turbovet:allow suppressions it applies itself. The diagnostics come back
// sorted by position.
func Check(pkgs []*Package, wholeModule bool) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		diags, err := Run(pkg, All())
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	if wholeModule {
		out = append(out, TestOnly(pkgs)...)
	}
	sortDiagnostics(out)
	return out, nil
}

// Vet loads the go-list patterns from the module root once and runs Check
// over the result: the entry point of turbo-vet and of TestRepoClean. The
// load is the whole module when patterns is empty or names ./..., which
// resolves from the root.
func Vet(root string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := NewLoader().LoadPatterns(root, patterns...)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	whole := len(patterns) == 0
	for _, p := range patterns {
		whole = whole || p == "./..."
	}
	return Check(pkgs, whole)
}

// All returns the full turbo-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		KVBalance,
		CtxFlow,
		GuardedBy,
	}
}
