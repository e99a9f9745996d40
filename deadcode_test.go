package hydra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hydra/internal/lint"
)

// loadModule type-checks the module once for every test of this package that
// resolves names through go/types.
var loadModule = sync.OnceValues(func() (*lint.Module, error) { return lint.LoadModule(".") })

// testOnlyAllowed names the functions that may be declared in production
// files while only tests (or nothing in this tree) reach them, as
// "pkg.Func" or "pkg.Type.Method", each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"lint.moduleImporter.Import": "implements types.Importer; go/types calls it",
	"task.Program.TotalOps":      "the op census: the conservation checks of mapping's and sim's tests, which cannot share a _test.go helper across packages",

	// internal/conformance is a harness: its importer is its own test, and
	// `make conformance` / `make conformance-update` are its entry points.
	"conformance.NewHarness":      "conformance harness API",
	"conformance.Matrix.Failures": "conformance harness API",
	"conformance.CompareGolden":   "conformance harness API",
	"conformance.LoadGolden":      "conformance harness API",
	"conformance.WriteGolden":     "conformance harness API",
}

// TestNoTestOnlyProductionFuncs keeps ROADMAP aim 2's "every production path
// must have a caller": every function or method declared in a non-test,
// non-generated file of this module must be reached from some non-test file
// of the module or of bench/ (the benchmark is a caller). A function only
// tests reach is an oracle or a test driver and belongs in a _test.go file;
// one nothing reaches is dead.
//
// Mentions resolve through go/types (lint.LoadModule's types.Info), so two
// functions that share a name no longer cover each other. A method also
// counts as reached when a method of its name is used through an interface,
// or when it implements a method of an interface type the module names
// (sort.Interface, heap.Interface, types.Importer, error, fmt.Stringer):
// the callee of such a call is not known statically. bench/ is a module of
// its own, so its mentions count by name.
func TestNoTestOnlyProductionFuncs(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	reached := map[*types.Func]bool{}
	dispatched := map[string][]*types.Interface{} // method name -> the interfaces it is called through
	declared := map[*types.Func]string{}
	for _, pkg := range mod.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				reached[fn.Origin()] = true
				if recv := recvType(fn); recv != nil && types.IsInterface(recv) {
					it := recv.Underlying().(*types.Interface)
					dispatched[fn.Name()] = append(dispatched[fn.Name()], it)
				}
			}
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(mod.Fset.Position(f.Pos()).Filename, "_gen.go") {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "main" && fd.Name.Name != "init" {
					declared[pkg.Info.Defs[fd.Name].(*types.Func)] = mod.Fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	benchNames := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir("bench", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				benchNames[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]*types.Func{}
	for fn := range declared {
		names[funcKey(fn)] = fn
	}
	var keys []string
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn := names[k]
		live := reached[fn] || benchNames[fn.Name()]
		if recv := recvType(fn); recv != nil {
			for _, it := range dispatched[fn.Name()] {
				live = live || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
			}
		}
		_, allowed := testOnlyAllowed[k]
		switch {
		case !live && !allowed:
			t.Errorf("%s (%s) is reached from no non-test file: delete it, or move it to a _test.go file if tests need it", k, declared[fn])
		case live && allowed:
			t.Errorf("%s is on the allowlist but has a production caller now: drop the entry", k)
		}
	}
	for k := range testOnlyAllowed {
		if names[k] == nil {
			t.Errorf("allowlist entry %s names no declared function: drop it", k)
		}
	}
}

// recvType is a method's receiver type, pointer stripped, or nil for a
// function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// funcKey names a function "pkg.Func" and a method "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if n, ok := recvType(fn).(*types.Named); ok {
		key += n.Obj().Name() + "."
	}
	return key + fn.Name()
}

// sharedStateAllowed names the package-level variables of the guarded
// packages that may hold a lock, a sync.Map or a map, as "pkg.name", each with
// the reason it stays. None today.
var sharedStateAllowed = map[string]string{}

// TestNoPackageLevelSharedState keeps the arithmetic and runtime packages free
// of process-global mutable state: no package-level sync.Map, sync.Mutex,
// sync.RWMutex or map variable in a non-test file of internal/{ckks, hefloat,
// fhir, cluster, serve, sim}. A cache keyed by *ckks.Parameters at package
// level never shrinks and couples every context in the process; caches belong
// to the value whose lifetime bounds them (LinearTransform's plans, the
// Evaluator's pools). Like the guard above it reads syntax only: a variable's
// declared type or initializer, not what a named type contains.
func TestNoPackageLevelSharedState(t *testing.T) {
	// kind names what e declares or constructs, "" when it is none of ours.
	var kind func(e ast.Expr) string
	kind = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.MapType:
			return "map"
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && x.Name == "sync" &&
				(e.Sel.Name == "Map" || e.Sel.Name == "Mutex" || e.Sel.Name == "RWMutex") {
				return "sync." + e.Sel.Name
			}
		case *ast.StarExpr:
			return kind(e.X)
		case *ast.UnaryExpr:
			return kind(e.X)
		case *ast.CompositeLit:
			return kind(e.Type)
		case *ast.CallExpr: // make(map[K]V)
			if fn, ok := e.Fun.(*ast.Ident); ok && fn.Name == "make" && len(e.Args) > 0 {
				return kind(e.Args[0])
			}
		}
		return ""
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, pkg := range []string{"ckks", "hefloat", "fhir", "cluster", "serve", "sim"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, id := range vs.Names {
						k := ""
						if vs.Type != nil {
							k = kind(vs.Type)
						} else if i < len(vs.Values) {
							k = kind(vs.Values[i])
						}
						name := pkg + "." + id.Name
						seen[name] = true
						if _, allowed := sharedStateAllowed[name]; k != "" && !allowed {
							t.Errorf("%s: package-level %s %s: give it to the value whose lifetime bounds it, or allow-list it with the reason",
								fset.Position(id.Pos()), k, name)
						}
					}
				}
			}
		}
	}
	for name := range sharedStateAllowed {
		if !seen[name] {
			t.Errorf("allowlist entry %s names no package-level variable: drop it", name)
		}
	}
}
