package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path the package was loaded as
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages. One Loader shares a FileSet and
// one importer across every package it loads, so each package (stdlib
// included — there is no export data to read) is type-checked from source
// exactly once per vet run: an import of a package the Loader has already
// loaded resolves to that very *types.Package, and every other import goes
// to the stdlib source importer, which caches what it checks.
type Loader struct {
	fset   *token.FileSet
	src    types.ImporterFrom
	loaded map[string]*types.Package
}

// NewLoader returns a Loader backed by the stdlib source importer. Module
// path resolution goes through go/build, so loads must run from inside the
// module being vetted.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		src:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		loaded: map[string]*types.Package{},
	}
}

// Import makes the Loader the types.Importer of the packages it checks.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom returns the loaded package for path if there is one, and the
// source importer's otherwise.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := l.loaded[path]; pkg != nil {
		return pkg, nil
	}
	return l.src.ImportFrom(path, dir, mode)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// LoadFiles parses the named files in dir and type-checks them as the
// package import path asPath; later loads that import asPath get this
// package. Comments are kept — directives and "guarded by" annotations live
// there.
func (l *Loader) LoadFiles(dir, asPath string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(asPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", asPath, err)
	}
	l.loaded[asPath] = pkg
	return &Package{Path: asPath, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info}, nil
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// LoadPatterns expands go-list package patterns (e.g. "./...") relative to
// rootDir and loads each matched package. Build-constrained and test files
// are excluded exactly as the go tool excludes them. The module packages
// the matched ones import are loaded too, dependencies first, but only the
// matched packages are returned.
func (l *Loader) LoadPatterns(rootDir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = rootDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.LoadFiles(lp.Dir, lp.ImportPath, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir to the enclosing go.mod — where turbo-vet
// and the smoke test anchor their ./... loads.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
