package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadAssign flags `_ = x` blank assignments of a plain identifier. These
// exist only to silence the compiler's unused-variable error, which means
// either the variable is dead (delete it) or it is load-bearing in a
// non-obvious way (annotate it with the reason). Interface-satisfaction
// declarations (`var _ Iface = T{}`) are declarations, not assignments, and
// are not flagged.
var DeadAssign = &Check{
	Name: "deadassign",
	Run:  runDeadAssign,
}

func runDeadAssign(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
				return true
			}
			lhs, ok := a.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name != "_" {
				return true
			}
			rhs, ok := a.Rhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if _, isVar := info.Uses[rhs].(*types.Var); !isVar {
				return true
			}
			pass.Reportf(a.Pos(), "dead blank assignment of %s: delete the variable or annotate why it must stay", rhs.Name)
			return true
		})
	}
}
