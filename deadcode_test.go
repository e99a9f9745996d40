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
