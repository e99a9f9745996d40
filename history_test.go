package hydra

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestBenchHistoryWellFormed keeps BENCH_history.jsonl, the only checked-in
// measurement, readable by a tool: every line is one JSON object with the
// commit it was measured at, the day, and a positive finite value for every
// BENCHMARK.json workload × end-to-end metric (scripts/bench_history.sh
// appends them from bench/run.sh's result files).
func TestBenchHistoryWellFormed(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(decl.Workloads) == 0 || len(decl.EndToEnd) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads and %d end-to-end metrics", len(decl.Workloads), len(decl.EndToEnd))
	}
	history, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for sc := bufio.NewScanner(bytes.NewReader(history)); sc.Scan(); {
		lines++
		var entry struct {
			SHA       string                        `json:"sha"`
			Date      string                        `json:"date"`
			Workloads map[string]map[string]float64 `json:"workloads"`
		}
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			t.Errorf("line %d: %v", lines, err)
			continue
		}
		if entry.SHA == "" || entry.Date == "" {
			t.Errorf("line %d: sha %q, date %q", lines, entry.SHA, entry.Date)
		}
		for _, w := range decl.Workloads {
			for _, m := range decl.EndToEnd {
				// A missing metric reads 0; JSON cannot carry NaN or Inf.
				if v := entry.Workloads[w.Name][m.Name]; v <= 0 {
					t.Errorf("line %d: %s %s = %v, want a positive value", lines, w.Name, m.Name, v)
				}
			}
		}
	}
	if lines == 0 {
		t.Error("BENCH_history.jsonl is empty")
	}
}

// TestDocsSize caps DESIGN.md and EXPERIMENTS.md at their sizes when the cap
// was set. A change that needs more room deletes stale text first, so the
// documents hold the current state rather than a log of every change.
func TestDocsSize(t *testing.T) {
	for name, limit := range map[string]int64{"DESIGN.md": 49493, "EXPERIMENTS.md": 18871} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its cap of %d: delete stale text first", name, fi.Size(), limit)
		}
	}
}

var (
	docSpan   = regexp.MustCompile("`([^`]*)`")
	goName    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	docPath   = regexp.MustCompile(`^[A-Za-z0-9_.*-]+(/[A-Za-z0-9_.*-]+)*/?$`)
	fileNamed = regexp.MustCompile(`\.(go|json|jsonl|md|sh|golden|txt|mod)$`)
)

// TestDesignNamesLiveCode keeps DESIGN.md (above its appendix of removals)
// and README.md about the code that exists. Every backticked span is checked:
//   - a path — a span ending in a file extension, or a slash-separated span
//     whose first element names a directory of the module — must name a file
//     or directory, by its whole path or a tail of it (globs allowed);
//   - a Go-like name — an identifier or a dotted chain of them, optionally
//     with "()" — must resolve to a declaration (see declaredNames).
//
// Names resolve to what the code declares, not to words in it, so a deleted
// or renamed name fails even while a comment still mentions it; a stale
// sentence about a live name still passes.
func TestDesignNamesLiveCode(t *testing.T) {
	declared, err := declaredNames()
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	var paths []string // every file and directory, slash-separated, from the root
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		paths = append(paths, filepath.ToSlash(p))
		if d.IsDir() {
			dirs[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(span string) bool {
		span = strings.TrimSuffix(span, "/")
		k := strings.Count(span, "/") + 1
		for _, p := range paths {
			if parts := strings.Split(p, "/"); len(parts) >= k {
				if ok, _ := path.Match(span, strings.Join(parts[len(parts)-k:], "/")); ok {
					return true
				}
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text, _, _ := strings.Cut(string(data), "\n## Appendix")
		for _, m := range docSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			first, _, nested := strings.Cut(span, "/")
			switch {
			case fileNamed.MatchString(span) || nested && dirs[first]:
				if docPath.MatchString(span) && !exists(span) {
					t.Errorf("%s names path `%s`, which the module does not have", doc, span)
				}
			case goName.MatchString(span):
				if !declared[strings.TrimSuffix(span, "()")] {
					t.Errorf("%s names `%s`, which nothing declares: say what replaced it, or move it to DESIGN.md's appendix", doc, span)
				}
			}
		}
	}
}

// declaredNames returns every name a doc may use for the code of the
// module, bench/ included:
//   - Go's keywords and predeclared names;
//   - every identifier a production declaration defines, locals and fields
//     included, resolved through lint.LoadModule's go/types;
//   - a package-level object O of package p as "O" and "p.O", and a field or
//     method M of a named type T in p as "M", "T.M", "p.M" and "p.T.M" (so
//     `ring.GetRows` names the method Ring.GetRows); the exported objects of
//     every package production code imports the same way, so `bits.Mul64`
//     resolves and `ring.Mul64` does not;
//   - the same for the top-level declarations, methods and struct fields of
//     test files and of bench/ (a module of its own), read as syntax;
//   - a name a production or bench/ file spells as a whole string literal (a
//     lint check's, a metric's or a conformance engine's name).
func declaredNames() (map[string]bool, error) {
	mod, err := loadModule()
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	add := func(pkg string, chain ...string) {
		names[pkg] = true
		for i := range chain {
			member := strings.Join(chain[i:], ".")
			names[member] = true
			names[pkg+"."+member] = true
		}
	}
	for _, name := range types.Universe.Names() {
		names[name] = true
	}
	for tok := token.BREAK; tok <= token.VAR; tok++ {
		names[tok.String()] = true
	}
	literals := func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && goName.MatchString(v) {
					names[v] = true
				}
			}
			return true
		})
	}
	addScope := func(pkg *types.Package, all bool) {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !all && !obj.Exported() {
				continue
			}
			add(pkg.Name(), n)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					add(pkg.Name(), n, st.Field(i).Name())
				}
			}
			ms := types.NewMethodSet(tn.Type())
			if !types.IsInterface(tn.Type()) {
				ms = types.NewMethodSet(types.NewPointer(tn.Type()))
			}
			for i := 0; i < ms.Len(); i++ {
				add(pkg.Name(), n, ms.At(i).Obj().Name())
			}
		}
	}
	for _, pkg := range mod.Pkgs {
		addScope(pkg.Types, true)
		for _, imp := range pkg.Types.Imports() {
			addScope(imp, false)
		}
		for id := range pkg.Info.Defs {
			names[id.Name] = true
		}
		for _, f := range pkg.Files {
			literals(f)
		}
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") && !(strings.HasPrefix(p, "bench/") && strings.HasSuffix(p, ".go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(p, "_test.go") {
			literals(f)
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkg, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(pkg, id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(pkg, id.Name)
						}
					case *ast.TypeSpec:
						add(pkg, spec.Name.Name)
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									add(pkg, spec.Name.Name, id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	return names, err
}
