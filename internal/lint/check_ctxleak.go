package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxLeak audits goroutine bodies in the scheduling layers for blocking
// channel operations with no cancellation path. A worker goroutine that
// sends or receives outside a select with a ctx.Done()/abort arm (or a
// default) outlives its job when the peer goes away: the fleet scheduler
// calls cancel(), the card loop never observes it, and the goroutine — plus
// the buffers it pins — leaks until process exit. The check walks every
// function transitively reachable from a go statement in the scoped
// packages and flags naked sends, naked receives from non-cancellation
// channels, and selects in which every arm can block forever.
var CtxLeak = &Check{
	Name: "ctxleak",
	Run:  runCtxLeak,
}

// ctxleakPkgs are the layers that spawn long-lived worker goroutines.
var ctxleakPkgs = []string{"internal/serve", "internal/cluster"}

func runCtxLeak(pass *Pass) {
	if !pass.InPkg(ctxleakPkgs...) {
		return
	}

	// Reachability is module-wide: a serve goroutine that drives a cluster
	// helper makes that helper goroutine code too. Union the closure over
	// all scoped packages once, then each package pass reports only the
	// declarations it owns.
	reach := pass.Module.cached("ctxleak.reach", func() any {
		idx := buildFuncIndex(pass.Module)
		union := map[*types.Func]bool{}
		for _, pkg := range pass.Module.Pkgs {
			for _, rel := range ctxleakPkgs {
				if pkg.Rel == rel || strings.HasSuffix(pkg.Rel, "/"+rel) {
					for fn := range goReachable(idx, pkg) {
						union[fn] = true
					}
				}
			}
		}
		return union
	}).(map[*types.Func]bool)

	visited := map[*ast.BlockStmt]bool{}
	for _, f := range pass.Pkg.Files {
		// Declared functions reachable from a go statement anywhere in the
		// scoped layers.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !reach[fn] || visited[fd.Body] {
				continue
			}
			visited[fd.Body] = true
			checkGoroutineBody(pass, fd.Body)
		}
		// Function literals launched directly: `go func() { ... }()`.
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok && !visited[lit.Body] {
				visited[lit.Body] = true
				checkGoroutineBody(pass, lit.Body)
			}
			return true
		})
	}
}

// checkGoroutineBody flags the blocking channel operations of one goroutine
// body that have no cancellation escape.
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// First pass: index the channel operations that appear as select comm
	// clauses — those are covered (or flagged) via their select, not
	// individually.
	inSelect := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc := clause.(*ast.CommClause)
			if cc.Comm == nil {
				continue
			}
			inSelect[cc.Comm] = true
			switch c := cc.Comm.(type) {
			case *ast.ExprStmt:
				inSelect[ast.Unparen(c.X)] = true
			case *ast.AssignStmt:
				if len(c.Rhs) == 1 {
					inSelect[ast.Unparen(c.Rhs[0])] = true
				}
			case *ast.SendStmt:
				inSelect[c] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if !selectHasEscape(info, n) {
				pass.Reportf(n.Pos(),
					"goroutine select has no cancellation arm: every case can block forever after the job is cancelled — add a ctx.Done()/abort case or a default")
			}
		case *ast.SendStmt:
			if !inSelect[n] {
				pass.Reportf(n.Pos(),
					"goroutine blocks on a bare channel send: if the receiver is cancelled first this goroutine leaks — wrap in a select with a ctx.Done()/abort arm")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !inSelect[n] && !isCancelChan(info, n.X) {
				pass.Reportf(n.Pos(),
					"goroutine blocks on a bare channel receive: if the sender is cancelled first this goroutine leaks — wrap in a select with a ctx.Done()/abort arm")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !isCancelChan(info, n.X) {
					pass.Reportf(n.Pos(),
						"goroutine ranges over a channel: it blocks until the channel is closed — ensure the producer closes it on cancellation, or select explicitly")
				}
			}
		}
		return true
	})
}

// selectHasEscape reports whether a select statement can always make
// progress under cancellation: a default clause, or at least one arm that
// receives from a cancellation or timeout channel.
func selectHasEscape(info *types.Info, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc := clause.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default clause: non-blocking
		}
		var recvFrom ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
				recvFrom = u.X
			}
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				if u, ok := ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
					recvFrom = u.X
				}
			}
		}
		if recvFrom != nil && isCancelChan(info, recvFrom) {
			return true
		}
	}
	return false
}

// isCancelChan recognizes channels that exist to signal cancellation,
// completion, or a timeout: ctx.Done() (any Done() method call), timers
// (time.After, a Timer/Ticker .C field), and channels whose name says what
// they are (done, abort, stop, quit, cancel, closed).
func isCancelChan(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Done", "After", "Tick":
				return true
			}
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return cancelishName(id.Name)
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "C" { // time.Timer / time.Ticker channel
			return true
		}
		return cancelishName(e.Sel.Name)
	case *ast.Ident:
		return cancelishName(e.Name)
	}
	return false
}

func cancelishName(name string) bool {
	n := strings.ToLower(name)
	for _, w := range []string{"done", "abort", "stop", "quit", "cancel", "closed"} {
		if strings.Contains(n, w) {
			return true
		}
	}
	return false
}
