package lint

import (
	"go/ast"
	"go/types"
)

// schedPkgs are the packages executing, simulating or compiling the
// schedule, where a swallowed error desynchronizes the discrete-event
// timeline, leaves peer cards blocked on a handshake that will never
// complete, or silently ships an illegal program (the fhir pass pipeline
// reports level underflow and scale mismatches as errors; dropping one turns
// a compile-time diagnostic into a runtime decryption failure).
var schedPkgs = []string{"internal/sim", "internal/cluster", "internal/serve", "internal/fhir"}

// ErrDrop flags discarded error returns in the scheduling/execution
// packages: calls whose error result is ignored entirely (expression
// statements, go/defer calls) or assigned to the blank identifier.
var ErrDrop = &Check{
	Name: "errdrop",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	if !pass.InPkg(schedPkgs...) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				reportDroppedCall(pass, info, n.X, "")
			case *ast.GoStmt:
				reportDroppedCall(pass, info, n.Call, " (in go statement)")
			case *ast.DeferStmt:
				reportDroppedCall(pass, info, n.Call, " (in defer)")
			case *ast.AssignStmt:
				reportBlankErrors(pass, info, n)
			}
			return true
		})
	}
}

// reportDroppedCall reports expr when it is a call whose results include an
// error that the statement form discards.
func reportDroppedCall(pass *Pass, info *types.Info, expr ast.Expr, ctx string) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	t := info.TypeOf(call)
	if t == nil {
		return
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				pass.Reportf(call.Pos(), "error result of %s discarded%s: a swallowed error desynchronizes the schedule", callName(call), ctx)
				return
			}
		}
	default:
		if isErrorType(t) {
			pass.Reportf(call.Pos(), "error result of %s discarded%s: a swallowed error desynchronizes the schedule", callName(call), ctx)
		}
	}
}

// reportBlankErrors reports error-typed values assigned to the blank
// identifier, e.g. `_ = run()`, `v, _ := parse()`, or `_ = err`.
func reportBlankErrors(pass *Pass, info *types.Info, n *ast.AssignStmt) {
	blankAt := func(i int) (ast.Expr, bool) {
		id, ok := n.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			return nil, false
		}
		return n.Lhs[i], true
	}
	if len(n.Lhs) != len(n.Rhs) {
		// Tuple form: x, _ := f().
		if len(n.Rhs) != 1 {
			return
		}
		tup, ok := info.TypeOf(n.Rhs[0]).(*types.Tuple)
		if !ok {
			return
		}
		for i := 0; i < len(n.Lhs) && i < tup.Len(); i++ {
			if lhs, blank := blankAt(i); blank && isErrorType(tup.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error assigned to blank identifier: handle or annotate it")
			}
		}
		return
	}
	for i := range n.Lhs {
		if lhs, blank := blankAt(i); blank && isErrorType(info.TypeOf(n.Rhs[i])) {
			pass.Reportf(lhs.Pos(), "error assigned to blank identifier: handle or annotate it")
		}
	}
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorIface)
}
