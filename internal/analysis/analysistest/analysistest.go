// Package analysistest runs an analyzer over a fixture directory and
// checks its diagnostics against // want "regexp" comments — the same
// contract as golang.org/x/tools/go/analysis/analysistest, rebuilt on the
// stdlib because this container has no module proxy.
//
// A fixture is a directory of .go files forming one package. Every line
// that should produce a diagnostic carries a trailing comment:
//
//	start := time.Now() // want `time\.Now reads the wall clock`
//
// The quoted text is a regexp matched against the diagnostic message;
// multiple want comments on one line expect multiple diagnostics. Lines
// with no want comment must stay silent. Directive-suppression fixtures
// exercise //turbovet:allow the same way — a suppressed line simply has no
// want.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRE matches `// want "..."` and `// want `+"`...`"+“ comments.
var wantRE = regexp.MustCompile("//\\s*want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture directory as package path asPath, applies the
// analyzer (with //turbovet:allow filtering, so suppression is testable),
// and diffs the findings against the fixture's want comments. asPath
// matters: analyzers self-scope on the package path, so a fixture loaded
// as an out-of-scope path asserts the analyzer stays quiet there.
func Run(t *testing.T, a *analysis.Analyzer, dir, asPath string) {
	t.Helper()
	pkg, err := loadDir(analysis.NewLoader(), dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	diff(t, []*analysis.Package{pkg}, diags)
}

// Load loads each subdirectory of dir, in the order given, as the package
// asPath/sub. A package must come after the fixture packages it imports,
// and asPath must be dir's real import path, so that the import resolves to
// the loaded package.
func Load(t *testing.T, dir, asPath string, subdirs ...string) []*analysis.Package {
	t.Helper()
	loader := analysis.NewLoader()
	var pkgs []*analysis.Package
	for _, sub := range subdirs {
		pkg, err := loadDir(loader, filepath.Join(dir, sub), asPath+"/"+sub)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", sub, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// RunTestOnly runs the module-level testonly check over the packages Load
// returns for the same arguments and diffs its findings against their want
// comments.
func RunTestOnly(t *testing.T, dir, asPath string, subdirs ...string) {
	t.Helper()
	pkgs := Load(t, dir, asPath, subdirs...)
	diff(t, pkgs, analysis.TestOnly(pkgs))
}

// diff fails t for every diagnostic no want comment in pkgs expects and for
// every want comment no diagnostic matches.
func diff(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, pkg := range pkgs {
		collectWants(t, pkg, wants)
	}
	for _, d := range diags {
		key := posKey(d.Pos.Filename, d.Pos.Line)
		hit := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

// loadDir loads every non-test .go file in dir as the package asPath —
// testdata directories are invisible to go list.
func loadDir(l *analysis.Loader, dir, asPath string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.LoadFiles(dir, asPath, names)
}

func posKey(file string, line int) string {
	return filepath.Base(file) + ":" + strconv.Itoa(line)
}

// collectWants adds the want comments of every file of pkg to wants, keyed
// by file:line.
func collectWants(t *testing.T, pkg *analysis.Package, wants map[string][]*expectation) {
	t.Helper()
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("reading fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				text := m[1]
				if m[2] != "" {
					text = m[2]
				} else {
					text = strings.ReplaceAll(text, `\"`, `"`)
				}
				re, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, text, err)
				}
				key := posKey(filename, i+1)
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
	}
}
