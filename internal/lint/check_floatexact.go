package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// exactPkgs are the exact-arithmetic zones: residues and serialized task
// programs must never pass through a float, where rounding would silently
// corrupt them.
var exactPkgs = []string{"internal/ring", "internal/isa"}

// FloatExact flags float32/float64 arithmetic inside the exact-arithmetic
// packages. Bit-exact residue arithmetic is the contract the NTT, RNS and
// serialization layers rely on; floating-point rounding inside those zones
// corrupts residues in ways no test of small parameters reliably catches.
var FloatExact = &Check{
	Name: "floatexact",
	Run:  runFloatExact,
}

var floatOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

func runFloatExact(pass *Pass) {
	if !pass.InPkg(exactPkgs...) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if !floatOps[n.Op] {
					return true
				}
				if tv, ok := info.Types[n]; ok && tv.Value != nil {
					return true // compile-time constant, exact by definition
				}
				if isFloat(info, n.X) || isFloat(info, n.Y) {
					pass.Reportf(n.OpPos, "float %q in exact-arithmetic zone: rounding here corrupts residues", n.Op)
				}
			case *ast.AssignStmt:
				if !floatOps[n.Tok] || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				if isFloat(info, n.Lhs[0]) {
					pass.Reportf(n.TokPos, "float %q in exact-arithmetic zone: rounding here corrupts residues", n.Tok)
				}
			}
			return true
		})
	}
}

func isFloat(info *types.Info, expr ast.Expr) bool {
	t := info.TypeOf(expr)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
