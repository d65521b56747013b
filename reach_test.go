// Reachability guard: every function and method declared in a non-test
// file under internal/ must be used by a non-test file of the module or of
// the perfbench module. A function only its own tests call is API nothing
// runs; delete it with its tests, or, if tests use it as the reference that
// checks other code, list it in reachReferences with the reason.
package nocmap_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachReferences lists the functions tests use as the reference for other
// code, keyed as reachKey prints them.
var reachReferences = map[string]string{
	"nocmap/internal/route.LeastCost":                "plain Dijkstra, the least-cost path CandidatesInto must put first",
	"nocmap/internal/route.Contiguous":               "checks that every path the route and core tests produce joins head to tail",
	"nocmap/internal/area.Model.MeshMM2":             "the closed-form mesh area the area model's per-switch sum is held to",
	"nocmap/internal/traffic.UseCase.FlowByPair":     "looks flows up by pair for the verify and sim tests' expectations",
	"nocmap/internal/traffic.UseCase.TotalBandwidth": "sums a use-case's demand for the generator and compound tests",
}

// reachModule is the import path of the repository's root module; the
// perfbench module's packages live under it too (nocmap/perfbench).
const reachModule = "nocmap"

func TestEveryInternalFunctionIsReached(t *testing.T) {
	l := newReachLoader(t)
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := l.load(reachPath(dir)); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if decl := l.decls[fn]; decl != nil && decl.Pos() <= id.Pos() && id.Pos() < decl.End() {
			continue // a function's calls of itself do not reach it
		}
		used[fn] = true
	}
	ifaces := l.exemptInterfaces(t)
	var unreached []string
	for fn := range l.decls {
		pkg := fn.Pkg().Path()
		if !strings.HasPrefix(pkg, reachModule+"/internal/") || used[fn] || fn.Name() == "init" {
			continue
		}
		key := reachKey(fn)
		if _, ok := reachReferences[key]; ok || implementsExempt(fn, ifaces) {
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s (%s)", key, l.fset.Position(fn.Pos())))
	}
	for key := range reachReferences {
		switch fn := l.lookup(key); {
		case fn == nil:
			t.Errorf("reachReferences lists %s, which is not declared", key)
		case used[fn]:
			t.Errorf("reachReferences lists %s, which non-test code uses", key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no non-test code uses %s", u)
	}
}

// reachKey names a function as package.Func or package.Type.Method.
func reachKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// implementsExempt reports whether fn is a method that satisfies an
// interface the program calls through: the interface, not the method, is
// what its callers name.
func implementsExempt(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	for _, iface := range ifaces {
		if !types.Implements(rt, iface) && !types.Implements(types.NewPointer(rt), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// reachPath maps a directory relative to the repository root to its import
// path.
func reachPath(dir string) string {
	if dir == "." {
		return reachModule
	}
	return reachModule + "/" + filepath.ToSlash(dir)
}

// reachLoader type-checks the repository's packages from their non-test
// files, recording every use and declaration in one Info, and the standard
// library from source.
type reachLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	pkgs  map[string]*types.Package
	decls map[*types.Func]*ast.FuncDecl
}

func newReachLoader(t *testing.T) *reachLoader {
	// Type-check the standard library's pure-Go files, as a CGO_ENABLED=0
	// build does, so the importer never runs cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		t.Fatal("source importer does not implement ImporterFrom")
	}
	return &reachLoader{
		fset:  fset,
		std:   std,
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		decls: map[*types.Func]*ast.FuncDecl{},
	}
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *reachLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == reachModule || strings.HasPrefix(path, reachModule+"/") {
		return l.load(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of one repository package.
func (l *reachLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, reachModule), "/"))
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := l.info.Defs[fd.Name].(*types.Func); ok {
					l.decls[fn] = fd
				}
			}
		}
	}
	return pkg, nil
}

// lookup returns the declared function of that reachKey, or nil.
func (l *reachLoader) lookup(key string) *types.Func {
	for fn := range l.decls {
		if reachKey(fn) == key {
			return fn
		}
	}
	return nil
}

// exemptInterfaces returns the interfaces the program calls methods
// through: the search engines, the store and its codec, the population
// evolvers, and the standard library's error, Stringer, Reader, Writer,
// ResponseWriter and Flusher.
func (l *reachLoader) exemptInterfaces(t *testing.T) []*types.Interface {
	named := []struct{ pkg, name string }{
		{reachModule + "/internal/search", "Engine"},
		{reachModule + "/internal/store", "Store"},
		{reachModule + "/internal/store", "Codec"},
		{reachModule + "/internal/search/population", "evolver"},
		{"fmt", "Stringer"},
		{"io", "Reader"},
		{"io", "Writer"},
		{"net/http", "ResponseWriter"},
		{"net/http", "Flusher"},
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, n := range named {
		pkg, err := l.Import(n.pkg)
		if err != nil {
			t.Fatal(err)
		}
		obj := pkg.Scope().Lookup(n.name)
		if obj == nil {
			t.Fatalf("%s.%s is not declared", n.pkg, n.name)
		}
		out = append(out, obj.Type().Underlying().(*types.Interface))
	}
	return out
}
