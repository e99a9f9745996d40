// Package lint is hydra-lint: a domain-specific static analyzer enforcing
// the repository's FHE and concurrency invariants. The accelerator papers
// this repo reproduces get their correctness guarantees from hardware
// datapaths (every coefficient passes through a modular-reduction unit,
// every transfer through the DTU queues); in a Go substrate the equivalent
// is mechanical enforcement, so the invariants survive refactoring.
//
// The analyzer is self-contained: packages are loaded and type-checked with
// the standard library only (see load.go). Checks report Diagnostics;
// findings that are intentional are suppressed in-source with
//
//	//lint:allow <check>[,<check>...] <reason>
//
// placed on the offending line or on the line directly above it. The reason
// is mandatory — an allow without one is itself reported (check "directive").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Suppressed marks findings covered by a //lint:allow directive; they
	// are retained so the golden tests can count each check's suppressions.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// A Check is one named analysis over a single package. What it enforces and
// why is its variable's doc comment.
type Check struct {
	Name string
	Run  func(pass *Pass)
}

// Pass carries one (check, package) pairing.
type Pass struct {
	Module *Module
	Pkg    *Package

	check   *Check
	collect func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.collect(Diagnostic{
		Pos:     p.Module.Fset.Position(pos),
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// InPkg reports whether the package under analysis is one of the given
// module-relative paths or nested below one of them.
func (p *Pass) InPkg(rels ...string) bool {
	for _, rel := range rels {
		if p.Pkg.Rel == rel || strings.HasPrefix(p.Pkg.Rel, rel+"/") {
			return true
		}
	}
	return false
}

// Checks returns the full registry in reporting order.
func Checks() []*Check {
	return []*Check{RawMod, PoolLeak, RawGo, FloatExact, ErrDrop, DeadAssign, LazyDomain, CtxLeak}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file   string
	line   int
	checks map[string]bool
}

// Run executes the given checks over every package of the module and returns
// all diagnostics (suppressed ones included), sorted by position. Malformed
// or unknown-check allow directives are reported under the "directive"
// pseudo-check, which cannot be suppressed.
func Run(mod *Module, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, c := range checks {
			pass := &Pass{
				Module:  mod,
				Pkg:     pkg,
				check:   c,
				collect: func(d Diagnostic) { diags = append(diags, d) },
			}
			c.Run(pass)
		}
	}

	directives, dirDiags := collectDirectives(mod)
	for i := range diags {
		d := &diags[i]
		for _, dir := range directives {
			if dir.file != d.Pos.Filename || !dir.checks[d.Check] {
				continue
			}
			// A directive covers its own line and the line below it (for
			// standalone comments placed above the offending statement).
			if d.Pos.Line == dir.line || d.Pos.Line == dir.line+1 {
				d.Suppressed = true
				break
			}
		}
	}
	diags = append(diags, dirDiags...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// collectDirectives parses every //lint:allow comment in the module,
// validating it against the check registry.
func collectDirectives(mod *Module) ([]allowDirective, []Diagnostic) {
	known := map[string]bool{}
	var names []string
	for _, c := range Checks() {
		known[c.Name] = true
		names = append(names, c.Name)
	}
	var dirs []allowDirective
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     pos,
			Check:   "directive",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					if text != "" && text[0] != ' ' && text[0] != '\t' {
						continue // e.g. //lint:allowother — not ours
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						report(pos, "allow directive names no check")
						continue
					}
					d := allowDirective{file: pos.Filename, line: pos.Line, checks: map[string]bool{}}
					for _, name := range strings.Split(fields[0], ",") {
						if name == "" {
							continue
						}
						if !known[name] {
							report(pos, "allow directive names unknown check %q (known: %s)",
								name, strings.Join(names, ", "))
							continue
						}
						d.checks[name] = true
					}
					if len(fields) == 1 {
						report(pos, "allow directive for %s gives no reason", fields[0])
					}
					if len(d.checks) > 0 {
						dirs = append(dirs, d)
					}
				}
			}
		}
	}
	return dirs, diags
}

// inspectWithStack walks the AST rooted at n, calling fn with each node and
// the stack of its ancestors (outermost first, n's parent last). Returning
// false from fn prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		stack = append(stack, n)
		if !ok {
			// Still push/popped symmetrically: Inspect will not descend, so
			// the nil pop for this node never comes; pop eagerly instead.
			stack = stack[:len(stack)-1]
		}
		return ok
	})
}
