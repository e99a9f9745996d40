package lint

import (
	"go/ast"
	"strings"
)

// LazyBound flags lazy residues escaping their accumulation window. The
// lazy-reduction kernels in internal/ring deliberately return values in
// [0, 2q) — congruent to the canonical residue but not equal to it — and
// their contract requires every lazy window to close with a ReduceFinal
// sweep (or feed the NTT kernels, which fold the sweep into their last
// pass). Outside internal/ring this check enforces that contract
// heuristically: a value produced by a *Lazy helper (or held in a
// Lazy-suffixed uint64 variable) must not flow into a consumer that expects
// canonical inputs unless the enclosing function also performs a
// canonicalizing sweep.
var LazyBound = &Check{
	Name: "lazybound",
	Doc:  "lazy [0,2q) residue flows into a canonical-input consumer with no ReduceFinal sweep in the enclosing function",
	Run:  runLazyBound,
}

func runLazyBound(pass *Pass) {
	if pass.InPkg(ringPkg) {
		// The ring package is the home of the lazy kernels; its windows are
		// verified by the bit-identity tests and the modular-ops fuzzer.
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasCanonicalizingSweep(fd.Body) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeName(call)
				if name == "" || lazyAware(name) {
					return true
				}
				for _, arg := range call.Args {
					if src, ok := lazySource(pass, arg); ok {
						pass.Reportf(arg.Pos(),
							"lazy residue from %s flows into %s, which expects canonical inputs, and this function has no ReduceFinal sweep",
							src, name)
					}
				}
				return true
			})
		}
	}
}

// calleeName returns the bare name of a call's target: the selector's final
// element for method/package calls, the identifier for plain calls, and ""
// for anything unresolvable (indirect calls through expressions).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// lazyAware reports whether a callee tolerates lazy [0,2q) inputs: the lazy
// helper family itself, the canonicalizing sweeps, and the NTT entry points
// (whose kernels fold the sweep into their last pass).
func lazyAware(name string) bool {
	return isLazyHelper(name) ||
		strings.Contains(name, "ReduceFinal") ||
		isNTTEntry(name)
}

// isLazyHelper matches the lazy kernel family by naming contract: the scalar
// and row helpers end in Lazy (MulAddLazy, MulAddRowLazy, …).
func isLazyHelper(name string) bool {
	return strings.HasSuffix(name, "Lazy")
}

// isNTTEntry matches the transform entry points that accept lazy input,
// including the shared-scratch ForwardBatch.
func isNTTEntry(name string) bool {
	return name == "Forward" || name == "Inverse" || name == "ForwardBatch" ||
		strings.Contains(name, "NTT")
}

// hasCanonicalizingSweep reports whether the function body contains a call
// that closes a lazy window: a ReduceFinal sweep or an NTT transform.
func hasCanonicalizingSweep(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if strings.Contains(name, "ReduceFinal") || isNTTEntry(name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// lazySource reports whether expr produces a lazy residue under the naming
// contract: a direct call to a *Lazy helper, or a Lazy-suffixed uint64
// variable.
func lazySource(pass *Pass, expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.CallExpr:
		if name := calleeName(e); strings.HasSuffix(name, "Lazy") {
			return name, true
		}
	case *ast.Ident:
		if strings.HasSuffix(e.Name, "Lazy") && isUint64(pass.Pkg.Info, e) {
			return e.Name, true
		}
	}
	return "", false
}
