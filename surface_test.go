package incll_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalFuncsHaveCallers fails on every exported function or method
// in internal/… that no non-test code of the repository references: the
// library, its binaries, examples/ and the benchmark/ module. A function
// only tests call belongs in a _test.go file, in internal/testutil, or —
// when another package's tests need it — in that package's testhooks.go.
func TestInternalFuncsHaveCallers(t *testing.T) {
	uncalled, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range uncalled {
		t.Error(msg)
	}
}

// TestSurfaceScanCatchesPlants runs the scan over a planted module: a
// function nobody calls, and a method whose name matches an interface
// that is called but whose type does not implement that interface. Both
// must be reported; the functions that are reached must not be.
func TestSurfaceScanCatchesPlants(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module plant\n\ngo 1.24\n",
		"main.go": `package main

import "plant/internal/p"

func main() {
	p.Called()
	var u p.Unpinner = &p.Sub{}
	u.Unpin()
	p.Slot[int]{}.Take()
}
`,
		"internal/p/p.go": `package p

func Called()  {}
func Planted() {}

type Unpinner interface{ Unpin() }

type Sub struct{}

func (*Sub) Unpin() {}

// Other has an Unpin that takes an argument, so it is no Unpinner.
type Other struct{}

func (Other) Unpin(int) {}

type Slot[T any] struct{}

func (Slot[T]) Take() {}

func (Other) String() string { return "" }
`,
		"internal/p/testhooks.go": "package p\n\nfunc Hook() {}\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := scanSurface(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"func (plant/internal/p.Other).Unpin(int): no non-test caller",
		"func plant/internal/p.Planted(): no non-test caller",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("scan reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// scanSurface type-checks every non-test package under root (the module
// named by root/go.mod, with nested modules such as benchmark/ resolved
// by directory) and reports the exported functions and methods of its
// internal/ packages that non-test code never references. A method also
// counts as referenced when its type implements an interface that
// non-test code refers to and that has the method. String and Error
// methods, declarations in testhooks.go and the test-only package
// internal/testutil are exempt; a non-test import of internal/testutil
// is reported instead.
func scanSurface(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	// Pure-Go standard library: the source importer would otherwise run
	// cgo on net and os/user.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.load(filepath.ToSlash(filepath.Join(modPath, rel)))
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	used := map[*types.Func]bool{}
	for _, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			used[f.Origin()] = true
		}
	}
	for _, fn := range l.dispatchedMethods() {
		used[fn] = true
	}
	var out []string
	for path, p := range l.pkgs {
		for _, imp := range p.Imports() {
			if imp.Path() == l.testutil() {
				out = append(out, path+": a non-test package imports "+imp.Path())
			}
		}
	}
	for _, fn := range l.candidates {
		if used[fn] || fn.Name() == "String" || fn.Name() == "Error" {
			continue
		}
		out = append(out, types.ObjectString(fn, nil)+": no non-test caller")
	}
	sort.Strings(out)
	return out, nil
}

type loader struct {
	fset          *token.FileSet
	root, modPath string
	std           types.ImporterFrom
	pkgs          map[string]*types.Package
	info          *types.Info
	// candidates are the exported functions and methods declared in
	// internal/ packages outside testhooks.go.
	candidates []*types.Func
}

// testutil is the path of the package that only tests import; it is not
// scanned, and a non-test package that imports it is reported.
func (l *loader) testutil() string { return l.modPath + "/internal/testutil" }

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	return l.load(path)
}

// load type-checks the non-test files of the module package at path once.
func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	if strings.HasPrefix(path, l.modPath+"/internal/") && path != l.testutil() {
		for i, f := range files {
			if bp.GoFiles[i] == "testhooks.go" {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					l.candidates = append(l.candidates, l.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
	}
	return p, nil
}

// referencedInterfaces returns every interface type that non-test code
// names or converts to: the types of its expressions and of the objects
// it uses, looking through pointers, containers and signatures.
func (l *loader) referencedInterfaces() []*types.Interface {
	seen := map[types.Type]bool{}
	var out []*types.Interface
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Interface:
			if t.NumMethods() > 0 {
				out = append(out, t)
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		}
	}
	for _, tv := range l.info.Types {
		walk(tv.Type)
	}
	for _, obj := range l.info.Uses {
		walk(obj.Type())
	}
	return out
}

// dispatchedMethods returns the methods that a call through a referenced
// interface can reach: for every non-generic named type of the module
// whose value or pointer implements such an interface, the method (its
// own or one promoted from an embedded field) behind each of the
// interface's methods.
func (l *loader) dispatchedMethods() []*types.Func {
	ifaces := l.referencedInterfaces()
	var out []*types.Func
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
				continue
			}
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				for _, it := range ifaces {
					if !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						obj, _, _ := types.LookupFieldOrMethod(t, false, p, it.Method(i).Name())
						if fn, ok := obj.(*types.Func); ok {
							out = append(out, fn.Origin())
						}
					}
				}
			}
		}
	}
	return out
}
