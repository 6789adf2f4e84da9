package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// TestOnlyName names the module-level check in diagnostics and in
// //turbovet:allow directives.
const TestOnlyName = "testonly"

// TestOnlyDoc is the testonly check's entry in the `turbo-vet -help`
// roster.
const TestOnlyDoc = `forbid functions and methods that only tests reach

Every function in a served package must be reached from a main package, an
init function or package-level code without passing through a _test.go
file. Uses inside functions that are themselves reached only from tests do
not count, so a chain that only tests call is reported at every link. A
test oracle or helper belongs in the _test.go file that uses it or, when
several packages' tests share it, in a test-support package. Exempt: main
and init; methods of a type that implements, by types.Implements, an
interface type named in non-test code, or fmt.Stringer where fmt is
imported (those are reached through the interface, not by name); and
test-support packages, which no main package reaches through non-test
imports. Runs only on a whole-module load (./... from the module root): on
a subset, a function whose callers sit outside it would read as unused. A
deliberate exception is annotated:
//turbovet:allow testonly -- <why it stays>`

// funcKey names a function or method by package path, receiver type name and
// function name. Keying by name rather than by *types.Func keeps the check
// correct even when one package is type-checked more than once in a load.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil { // error.Error and other universe methods
		return ""
	}
	recv := ""
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return fn.Pkg().Path() + "." + recv + "." + fn.Name()
}

// funcLabel is how a diagnostic names fn: Func, T.Method or (*T).Method.
func funcLabel(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		return fmt.Sprintf("(*%s).%s", types.TypeString(p.Elem(), types.RelativeTo(fn.Pkg())), fn.Name())
	}
	return types.TypeString(t, types.RelativeTo(fn.Pkg())) + "." + fn.Name()
}

// servedPackages returns the import paths of the loaded packages that some
// main package reaches through non-test imports. The rest are test-support
// packages: only _test.go files import them.
func servedPackages(pkgs []*Package) map[string]bool {
	byPath := map[string]*Package{}
	var queue []*Package
	for _, p := range pkgs {
		byPath[p.Path] = p
		if p.Types.Name() == "main" {
			queue = append(queue, p)
		}
	}
	served := map[string]bool{}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if served[p.Path] {
			continue
		}
		served[p.Path] = true
		for _, imp := range p.Types.Imports() {
			if q := byPath[imp.Path()]; q != nil {
				queue = append(queue, q)
			}
		}
	}
	return served
}

// usedInterfaces appends to out every interface type with methods, not yet
// in seen, that the package's non-test code names: the declared type of a
// variable, field, parameter or result, the type of an expression, or
// fmt.Stringer.
func usedInterfaces(pkg *Package, seen map[types.Type]bool, out []types.Type) []types.Type {
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named, *types.Alias:
			if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, t)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				out = append(out, t)
			}
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Chan:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Signature:
			walk(u.Params())
			walk(u.Results())
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				walk(u.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type())
			}
		}
	}
	for _, tv := range pkg.Info.Types {
		walk(tv.Type)
	}
	for _, objs := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
		for _, obj := range objs {
			if obj != nil {
				walk(obj.Type())
			}
		}
	}
	// fmt type-asserts the values it prints to fmt.Stringer, so importing
	// fmt names that interface.
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "fmt" {
			walk(imp.Scope().Lookup("Stringer").Type())
		}
	}
	return out
}

// usedFuncs appends to uses the key of every function or method that node
// names.
func usedFuncs(info *types.Info, node ast.Node, uses []string) []string {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				if key := funcKey(fn); key != "" {
					uses = append(uses, key)
				}
			}
		}
		return true
	})
	return uses
}

// TestOnly is the module-level check: it reports every function or method
// of a served package that no main package, init function or package-level
// code reaches outside _test.go files. pkgs must be the whole module — see
// TestOnlyDoc — and hold non-test files only, as LoadPatterns loads them.
func TestOnly(pkgs []*Package) []Diagnostic {
	type funcDecl struct {
		pos   token.Position
		label string
		uses  []string
	}
	decls := map[string]*funcDecl{}
	var roots []string
	served := servedPackages(pkgs)
	seenType := map[types.Type]bool{}
	var ifaces []types.Type
	for _, pkg := range pkgs {
		if !served[pkg.Path] {
			continue
		}
		allowed := allowedLines(pkg.Fset, pkg.Files)[TestOnlyName]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					// Package-level code: its uses are roots.
					roots = usedFuncs(pkg.Info, d, roots)
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Types.Name() == "main") {
					roots = usedFuncs(pkg.Info, fd, roots)
					continue
				}
				key := funcKey(fn)
				pos := pkg.Fset.Position(fd.Name.Pos())
				decls[key] = &funcDecl{pos: pos, label: funcLabel(fn), uses: usedFuncs(pkg.Info, fd, nil)}
				if allowed[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] {
					roots = append(roots, key)
				}
			}
		}
		ifaces = usedInterfaces(pkg, seenType, ifaces)
	}

	// A method that helps a served type implement a used interface is
	// reached through the interface: root every method the interface
	// names, promoted ones included. *T's method set holds T's.
	for _, pkg := range pkgs {
		if !served[pkg.Path] {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			t := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(t)
			for _, it := range ifaces {
				iface := it.Underlying().(*types.Interface)
				if !types.Implements(t, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					roots = append(roots, funcKey(mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func)))
				}
			}
		}
	}

	live := map[string]bool{}
	for len(roots) > 0 {
		key := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[key] {
			continue
		}
		live[key] = true
		if d := decls[key]; d != nil {
			roots = append(roots, d.uses...)
		}
	}

	var out []Diagnostic
	for key, d := range decls {
		if live[key] {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: TestOnlyName,
			Pos:      d.pos,
			Message:  fmt.Sprintf("%s is reached only from tests; delete it, move it into the _test.go file or test-support package that uses it, or annotate //turbovet:allow testonly -- <reason>", d.label),
		})
	}
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
}
