package hydra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the functions that may be declared in production
// files while only tests (or nothing in this tree) mention them, each with
// the reason it stays.
var testOnlyAllowed = map[string]string{
	"Import":   "lint.moduleImporter implements types.Importer; go/types calls it",
	"TotalOps": "task.Program's op census: the conservation checks of mapping's and sim's tests, which cannot share a _test.go helper across packages",

	// internal/conformance is a harness: its importer is its own test, and
	// `make conformance` / `make conformance-update` are its entry points.
	"NewHarness":    "conformance harness API",
	"Failures":      "conformance harness API",
	"CompareGolden": "conformance harness API",
	"LoadGolden":    "conformance harness API",
	"WriteGolden":   "conformance harness API",
}

// TestNoTestOnlyProductionFuncs keeps ROADMAP aim 2's "every production path
// must have a caller": every function or method declared in a non-test,
// non-generated file of this module must be mentioned by some non-test file
// of the module or of bench/ (the benchmark is a caller). A function only
// tests reach is an oracle or a test driver and belongs in a _test.go file;
// one nothing reaches is dead.
//
// The match is by name, from the syntax alone: any identifier other than the
// declaring one counts as a mention, so a method reached only through an
// interface is covered by the interface call, and two functions that share a
// name cover each other. That makes the guard cheap and free of false alarms,
// not complete.
func TestNoTestOnlyProductionFuncs(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // function name → declaration sites
	mentioned := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declaring := map[*ast.Ident]bool{}
		ownsDecls := !strings.HasSuffix(name, "_gen.go") && !strings.HasPrefix(filepath.ToSlash(path), "bench/")
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declaring[fd.Name] = true
				if n := fd.Name.Name; ownsDecls && n != "main" && n != "init" {
					declared[n] = append(declared[n], fset.Position(fd.Pos()).String())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				mentioned[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range declared {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_, allowed := testOnlyAllowed[n]
		switch {
		case !mentioned[n] && !allowed:
			t.Errorf("%s (%s) is mentioned by no non-test file: delete it, or move it to a _test.go file if tests need it",
				n, strings.Join(declared[n], ", "))
		case mentioned[n] && allowed:
			t.Errorf("%s is on the allowlist but has a production mention now: drop the entry", n)
		}
	}
	for n := range testOnlyAllowed {
		if declared[n] == nil {
			t.Errorf("allowlist entry %s names no declared function: drop it", n)
		}
	}
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
