package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestGolden runs every check over the testdata module and compares the
// unsuppressed findings against the `// want <check>...` markers in the
// sources. Each check must produce at least one true positive and have at
// least one suppressed case, so the suppression path is exercised per check.
func TestGolden(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}

	// Collect want markers: file:line -> sorted check names.
	want := map[string][]string{}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					want[key] = append(want[key], strings.Fields(rest)...)
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no want markers found in testdata")
	}

	diags := Run(mod, Checks())

	got := map[string][]string{}
	activePerCheck := map[string]int{}
	suppressedPerCheck := map[string]int{}
	for _, d := range diags {
		if d.Check == "directive" {
			t.Errorf("unexpected directive diagnostic in testdata: %s", d)
			continue
		}
		if d.Suppressed {
			suppressedPerCheck[d.Check]++
			if d.Reason == "" {
				t.Errorf("suppressed diagnostic lost its reason: %s", d)
			}
			continue
		}
		activePerCheck[d.Check]++
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		got[key] = append(got[key], d.Check)
	}

	for key, w := range want {
		sort.Strings(w)
		g := got[key]
		sort.Strings(g)
		if strings.Join(w, " ") != strings.Join(g, " ") {
			t.Errorf("%s: want diagnostics [%s], got [%s]", key, strings.Join(w, " "), strings.Join(g, " "))
		}
	}
	for key, g := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected diagnostics [%s]", key, strings.Join(g, " "))
		}
	}

	for _, c := range Checks() {
		if activePerCheck[c.Name] == 0 {
			t.Errorf("check %s has no true-positive case in testdata", c.Name)
		}
		if suppressedPerCheck[c.Name] == 0 {
			t.Errorf("check %s has no suppressed case in testdata", c.Name)
		}
	}
}

// TestDirectiveValidation checks the framework's handling of malformed
// //lint:allow directives: missing reasons and unknown check names are
// reported, and a reasonless directive still suppresses (one finding, not
// two, per mistake).
func TestDirectiveValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module hydra\n\ngo 1.22\n")
	write("internal/sim/sim.go", `package sim

import "errors"

func step() error { return errors.New("x") }

func noReason() {
	//lint:allow errdrop
	step()
}

func unknownCheck() {
	//lint:allow nosuchcheck because reasons
	step()
}

func bareDirective() {
	//lint:allow
	step()
}
`)
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(mod, Checks())

	var directive, errdropActive, errdropSuppressed int
	for _, d := range diags {
		switch {
		case d.Check == "directive":
			directive++
		case d.Check == "errdrop" && d.Suppressed:
			errdropSuppressed++
		case d.Check == "errdrop":
			errdropActive++
		}
	}
	// noReason: directive finding, but still suppresses its errdrop.
	// unknownCheck: directive finding, errdrop stays active.
	// bareDirective: directive finding, errdrop stays active.
	if directive != 3 {
		t.Errorf("directive diagnostics = %d, want 3\n%v", directive, diags)
	}
	if errdropSuppressed != 1 {
		t.Errorf("suppressed errdrop = %d, want 1\n%v", errdropSuppressed, diags)
	}
	if errdropActive != 2 {
		t.Errorf("active errdrop = %d, want 2\n%v", errdropActive, diags)
	}
}

// TestDirectivePlacement checks the reach of a well-formed //lint:allow: it
// suppresses findings on its own line and the line directly below, and
// nothing else — a directive separated by a blank line, or placed after the
// finding, does not suppress.
func TestDirectivePlacement(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module hydra\n\ngo 1.22\n")
	write("internal/sim/sim.go", `package sim

import "errors"

func step() error { return errors.New("x") }

func farAbove() {
	//lint:allow errdrop separated by a blank line: must not suppress

	step()
}

func sameLine() {
	step() //lint:allow errdrop same-line suppression
}

func lineAbove() {
	//lint:allow errdrop line-above suppression
	step()
}

func after() {
	step()
	//lint:allow errdrop directives do not reach upward: must not suppress
}
`)
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(mod, Checks())

	byLine := map[int]Diagnostic{}
	for _, d := range diags {
		if d.Check == "errdrop" {
			byLine[d.Pos.Line] = d
		} else if d.Check == "directive" {
			t.Errorf("unexpected directive diagnostic: %s", d)
		}
	}
	cases := []struct {
		name       string
		line       int
		suppressed bool
	}{
		{"blank line between directive and finding", 10, false},
		{"directive on the finding's own line", 14, true},
		{"directive on the line above", 19, true},
		{"directive after the finding", 23, false},
	}
	for _, tc := range cases {
		d, ok := byLine[tc.line]
		if !ok {
			t.Errorf("%s: no errdrop diagnostic at line %d\n%v", tc.name, tc.line, diags)
			continue
		}
		if d.Suppressed != tc.suppressed {
			t.Errorf("%s: suppressed = %v, want %v (%s)", tc.name, d.Suppressed, tc.suppressed, d)
		}
	}
}

// TestSelfClean asserts the analyzer runs clean over its own repository:
// zero unsuppressed diagnostics on the tree that ships it.
func TestSelfClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, d := range Run(mod, Checks()) {
		if !d.Suppressed {
			t.Errorf("unsuppressed finding: %s", d)
		}
	}
}
