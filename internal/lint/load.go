package lint

// In-module package loader.
//
// hydra-lint deliberately avoids golang.org/x/tools (go.mod stays
// dependency-free), so this file reimplements the small slice of a package
// loader the checks need: discover the module's packages, parse them, and
// type-check them in dependency order. Imports of sibling packages resolve
// against the packages already checked; imports of the standard library go
// through the stdlib source importer (go/importer "source" mode), which
// reads GOROOT/src directly and needs no pre-compiled export data.

import (
	"fmt"
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
)

// Package is one parsed, type-checked package of the module.
type Package struct {
	Path  string // full import path, e.g. hydra/internal/ring
	Rel   string // module-relative path, "" for the module root package
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded module: every non-test package, type-checked, in
// dependency order.
type Module struct {
	Path string // module path from go.mod
	Dir  string
	Fset *token.FileSet
	Pkgs []*Package

	memo map[string]any // module-scoped analysis artifacts, see cached
}

// cached memoizes module-scoped analysis artifacts (the function index, the
// interprocedural summaries) so checks and packages of one Run share them
// instead of recomputing per package. Run is sequential, so no locking.
func (m *Module) cached(key string, build func() any) any {
	if m.memo == nil {
		m.memo = map[string]any{}
	}
	v, ok := m.memo[key]
	if !ok {
		v = build()
		m.memo[key] = v
	}
	return v
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every non-test package under root
// (skipping testdata, vendor, hidden directories, and nested modules).
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: modPath, Dir: root, Fset: token.NewFileSet()}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Parse every package.
	byPath := map[string]*Package{}
	for _, dir := range dirs {
		pkg, err := parseDir(mod, root, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
		}
	}

	order, err := topoSort(mod, byPath)
	if err != nil {
		return nil, err
	}

	// Type-check in dependency order.
	imp := &moduleImporter{
		std: importer.ForCompiler(mod.Fset, "source", nil).(types.ImporterFrom),
		mod: map[string]*types.Package{},
	}
	for _, pkg := range order {
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		tpkg, err := conf.Check(pkg.Path, mod.Fset, pkg.Files, pkg.Info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-checking %s: %v", pkg.Path, typeErrs[0])
		}
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", pkg.Path, err)
		}
		pkg.Types = tpkg
		imp.mod[pkg.Path] = tpkg
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// packageDirs returns every directory under root that may hold a package of
// this module.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory that the default
// build compiles; it returns nil if the directory holds none.
func parseDir(mod *Module, root, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		// The default build's Go files: not hidden, constraints met untagged.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if e.IsDir() || !ok || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(mod.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Files: files}
	if rel == "." {
		pkg.Rel, pkg.Path = "", mod.Path
	} else {
		pkg.Rel = filepath.ToSlash(rel)
		pkg.Path = mod.Path + "/" + pkg.Rel
	}
	return pkg, nil
}

// topoSort orders packages so that every in-module import precedes its
// importer.
func topoSort(mod *Module, byPath map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
		state[path] = visiting
		pkg := byPath[path]
		var deps []string
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if ip == mod.Path || strings.HasPrefix(ip, mod.Path+"/") {
					deps = append(deps, ip)
				}
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := byPath[dep]; !ok {
				return fmt.Errorf("lint: %s imports %s, which is not in the module", path, dep)
			}
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves in-module imports from the packages already
// type-checked and everything else (the standard library) from source.
type moduleImporter struct {
	std types.ImporterFrom
	mod map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, 0)
}
