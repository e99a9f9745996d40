package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolLeak flags pooled rows (ring.GetRows results) that leave their
// acquire/release window: values returned from the acquiring function,
// stored into struct fields, slices or maps, sent on channels, placed in
// composite literals, or captured by closures that outlive the call
// (goroutines, stored/returned func values). A leaked row is given back to
// the sync.Pool while still referenced, and the next GetRows hands the same
// memory to an unrelated limb — a silent cross-ciphertext corruption no
// local test catches.
//
// Closures passed directly to the bounded pool (ring.ForEachLimb) or invoked
// immediately are inside the window and are not flagged. A function that
// acquires rows and neither releases nor visibly hands them off is flagged
// at the acquisition site.
var PoolLeak = &Check{
	Name: "poolleak",
	Run:  runPoolLeak,
}

// The internal/ring names the pool checks match (TestPoolNamesExist resolves
// each): the row pool's take and give, and the bounded fan-out whose
// closures run before it returns.
const poolAcquire, poolRelease, boundedPool = "GetRows", "PutRows", "ForEachLimb"

func runPoolLeak(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzePoolFunc(pass, fd.Body)
		}
	}
}

// pooledVar tracks one acquired buffer within a function body.
type pooledVar struct {
	obj      types.Object
	acquire  ast.Node
	escaped  bool
	released bool
}

func analyzePoolFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// Pass 1: find acquisitions and releases.
	var pooled []*pooledVar
	byObj := map[types.Object]*pooledVar{}
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i := range a.Rhs {
			call, ok := a.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, ok := ringCallee(info, call)
			if !ok || fn.Name() != poolAcquire {
				continue
			}
			id, ok := a.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			pv := &pooledVar{obj: obj, acquire: a}
			pooled = append(pooled, pv)
			byObj[obj] = pv
		}
		return true
	})

	// Pass 2: find escapes (and releases) with ancestry context.
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if pv := usedPooled(info, byObj, res); pv != nil {
					pv.escaped = true
					pass.Reportf(n.Pos(), "pooled scratch %s returned: it outlives its acquire/release window", pv.obj.Name())
				} else if c := findPoolGet(info, res); c != nil {
					pass.Reportf(n.Pos(), "pooled scratch returned directly: it can never be released")
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				pv := directPooled(info, byObj, n.Rhs[i])
				if pv == nil {
					continue
				}
				switch n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pv.escaped = true
					pass.Reportf(n.Pos(), "pooled scratch %s stored into a struct field: it escapes its acquire/release window", pv.obj.Name())
				case *ast.IndexExpr:
					pv.escaped = true
					pass.Reportf(n.Pos(), "pooled scratch %s stored into a slice/map element: it escapes its acquire/release window", pv.obj.Name())
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if pv := directPooled(info, byObj, elt); pv != nil {
					pv.escaped = true
					pass.Reportf(elt.Pos(), "pooled scratch %s placed in a composite literal: it escapes its acquire/release window", pv.obj.Name())
				}
			}
		case *ast.SendStmt:
			if pv := usedPooled(info, byObj, n.Value); pv != nil {
				pv.escaped = true
				pass.Reportf(n.Pos(), "pooled scratch %s sent on a channel: it escapes its acquire/release window", pv.obj.Name())
			}
		case *ast.CallExpr:
			if fn, ok := ringCallee(info, n); ok && fn.Name() == poolRelease {
				for _, arg := range n.Args {
					if pv := directPooled(info, byObj, arg); pv != nil {
						pv.released = true
					}
				}
			}
		case *ast.FuncLit:
			checkClosureCapture(pass, info, byObj, n, stack)
		}
		return true
	})

	// Pass 3: acquisitions that neither escape (ownership handed off — the
	// escape is already reported) nor release are leaks in place.
	for _, pv := range pooled {
		if !pv.escaped && !pv.released {
			pass.Reportf(pv.acquire.Pos(), "pooled scratch %s acquired but never released (no PutRows in this function)", pv.obj.Name())
		}
	}
}

// checkClosureCapture reports a FuncLit that captures a pooled variable
// declared outside it, unless the closure runs within the acquire/release
// window: passed directly to the bounded pool (a function of internal/ring),
// invoked immediately, or deferred.
func checkClosureCapture(pass *Pass, info *types.Info, byObj map[types.Object]*pooledVar, fl *ast.FuncLit, stack []ast.Node) {
	var captured *pooledVar
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		pv := byObj[obj]
		if pv == nil {
			return true
		}
		// Declared inside the closure: not a capture.
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true
		}
		captured = pv
		return false
	})
	if captured == nil || len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	if call, ok := parent.(*ast.CallExpr); ok {
		if call.Fun == fl {
			// Immediately invoked (or deferred): runs inside the window —
			// unless it is the body of a go statement, which outlives it.
			if len(stack) >= 2 {
				if _, isGo := stack[len(stack)-2].(*ast.GoStmt); isGo {
					captured.escaped = true
					pass.Reportf(fl.Pos(), "pooled scratch %s captured by a goroutine: it outlives the acquire/release window", captured.obj.Name())
				}
			}
			return
		}
		// Argument position: allowed only for the bounded pool itself.
		if fn, ok := ringCallee(info, call); ok && fn.Name() == boundedPool {
			return
		}
	}
	captured.escaped = true
	pass.Reportf(fl.Pos(), "pooled scratch %s captured by an escaping closure: it can outlive the acquire/release window", captured.obj.Name())
}

// ringCallee resolves call's callee to a function of internal/ring.
func ringCallee(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	p := fn.Pkg().Path()
	if p != "internal/ring" && !strings.HasSuffix(p, "/internal/ring") {
		return nil, false
	}
	return fn, true
}

// directPooled returns the pooled variable when expr is exactly an identifier
// bound to one.
func directPooled(info *types.Info, byObj map[types.Object]*pooledVar, expr ast.Expr) *pooledVar {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	return byObj[info.Uses[id]]
}

// usedPooled returns a pooled variable referenced anywhere in expr's subtree.
func usedPooled(info *types.Info, byObj map[types.Object]*pooledVar, expr ast.Expr) *pooledVar {
	var found *pooledVar
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if pv := byObj[info.Uses[id]]; pv != nil {
				found = pv
				return false
			}
		}
		return true
	})
	return found
}

// findPoolGet returns a GetRows call appearing in expr's subtree.
func findPoolGet(info *types.Info, expr ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := ringCallee(info, call); ok && fn.Name() == poolAcquire {
				found = call
				return false
			}
		}
		return true
	})
	return found
}
