package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ringPkg is the module-relative path of the modular-arithmetic substrate;
// it is the only package allowed to perform raw coefficient arithmetic.
const ringPkg = "internal/ring"

// RawMod flags raw +, -, *, % on uint64 values outside internal/ring. In the
// accelerator every coefficient passes through a hardware reduction unit; in
// this substrate the equivalent rule is that mod-q arithmetic must flow
// through the ring.Modulus / AddMod-family helpers — including the
// sanctioned lazy family (MulModShoupLazy and the …RowLazy kernels) closed by
// ReduceFinalVec — so a raw operator on uint64 residues signals a missing Barrett/Shoup reduction
// (or a lazy value silently exceeding its contract; see the companion
// lazydomain check).
var RawMod = &Check{
	Name: "rawmod",
	Doc:  "raw +,-,*,% on uint64 values outside internal/ring (missing modular reduction)",
	Run:  runRawMod,
}

var rawModOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.REM: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true, token.REM_ASSIGN: true,
}

func runRawMod(pass *Pass) {
	if pass.InPkg(ringPkg) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if !rawModOps[n.Op] {
					return true
				}
				if tv, ok := info.Types[n]; ok && tv.Value != nil {
					return true // constant-folded: no runtime coefficient math
				}
				if isUint64(info, n.X) && isUint64(info, n.Y) {
					pass.Reportf(n.OpPos, "raw uint64 %q outside %s: route modular arithmetic through ring helpers", n.Op, ringPkg)
				}
			case *ast.AssignStmt:
				if !rawModOps[n.Tok] || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				if isUint64(info, n.Lhs[0]) && isUint64(info, n.Rhs[0]) {
					pass.Reportf(n.TokPos, "raw uint64 %q outside %s: route modular arithmetic through ring helpers", n.Tok, ringPkg)
				}
			}
			return true
		})
	}
}

// isUint64 reports whether expr's static type has underlying type uint64.
func isUint64(info *types.Info, expr ast.Expr) bool {
	t := info.TypeOf(expr)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}
