package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// ctFact is the abstract ciphertext state of the levelscale lattice. Levels
// and scales are tracked relatively: the first time a ciphertext variable
// meets an evaluator op it is bound to the baseline (0 level drops, 0
// pending rescales, degree 1), and every op moves it from there. The lattice
// is unknown < known facts < conflict: joining two different histories
// yields the conflict element, which poisons everything it touches — the
// analysis only speaks when a value's whole history is visible and
// path-independent. (Conflict must be absorbing, not collapse to unknown:
// an unknown is re-baselined at its next use, which would fabricate a level
// relation and oscillate the fixpoint.)
type ctFact struct {
	known    bool
	conflict bool
	drops    int8 // Rescale/DropLevel steps below the baseline
	pend     int8 // multiplications not yet closed by a Rescale (scale = Δ^(1+pend))
	deg      int8 // ciphertext degree: 2 after a non-relinearized multiplication
}

var (
	ctBaseline = ctFact{known: true, drops: 0, pend: 0, deg: 1}
	ctConflict = ctFact{conflict: true}
)

func joinCt(a, b ctFact) ctFact {
	switch {
	case a == b:
		return a
	case !a.known && !a.conflict:
		return b
	case !b.known && !b.conflict:
		return a
	default:
		return ctConflict
	}
}

// LevelScale tracks ciphertext level, scale and degree through the
// ckks/hefloat evaluator API on the SSA-lite engine. It flags the three
// modulus-chain protocol violations the conformance harness can only catch
// probabilistically: binary ops whose operands have diverged in level or in
// pending rescales (the scale mismatch panics at run time, the level
// mismatch silently burns a copy+drop), a multiplication applied to a value
// that already carries an unrescaled product (scale reaches Δ³ and overflows
// the modulus budget), and a multiplication applied to a degree-2 ciphertext
// that was never relinearized.
var LevelScale = &Check{
	Name: "levelscale",
	Doc:  "ciphertext level/scale/degree protocol violation across evaluator calls (mismatched operands, missing Rescale, missing Relinearize)",
	Run:  runLevelScale,
}

// ckksPkg is the evaluator's home package; the check runs on its consumers.
const ckksPkg = "internal/ckks"

func runLevelScale(pass *Pass) {
	if pass.InPkg(ckksPkg) {
		// The evaluator implements the ops; its internal polynomial surgery
		// is validated by the noise and conformance suites.
		return
	}
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
			run := &ctRun{info: pass.Pkg.Info, reportf: pass.Reportf}
			run.analyze(body, nil)
		})
	}
}

// ctRun analyzes one function body.
type ctRun struct {
	info    *types.Info
	reportf func(pos token.Pos, format string, args ...any)
}

func (r *ctRun) analyze(body *ast.BlockStmt, entry state[ctFact]) state[ctFact] {
	f := &flow[ctFact]{
		cfg:      BuildCFG(body),
		joinFact: joinCt,
		entry:    entry,
		transfer: func(n ast.Node, s state[ctFact], report bool) {
			r.node(n, s, report)
		},
	}
	return f.solve()
}

func (r *ctRun) flag(rep bool, pos token.Pos, format string, args ...any) {
	if rep && r.reportf != nil {
		r.reportf(pos, format, args...)
	}
}

func (r *ctRun) node(n ast.Node, s state[ctFact], rep bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		switch {
		case len(n.Lhs) == len(n.Rhs):
			facts := make([]ctFact, len(n.Rhs))
			for i, rhs := range n.Rhs {
				facts[i] = r.eval(rhs, s, rep)
			}
			for i, lhs := range n.Lhs {
				r.assign(lhs, facts[i], s)
			}
		case len(n.Rhs) == 1:
			r.eval(n.Rhs[0], s, rep)
			for _, lhs := range n.Lhs {
				r.assign(lhs, ctFact{}, s)
			}
		}
	case *ast.ExprStmt:
		r.eval(n.X, s, rep)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			r.eval(res, s, rep)
		}
	case *ast.SendStmt:
		r.eval(n.Value, s, rep)
	case *ast.DeferStmt:
		r.eval(n.Call, s, rep)
	case *ast.GoStmt:
		r.eval(n.Call, s, rep)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						f := ctFact{}
						if i < len(vs.Values) && len(vs.Values) == len(vs.Names) {
							f = r.eval(vs.Values[i], s, rep)
						}
						if obj := r.info.Defs[name]; obj != nil {
							s[obj] = f
						}
					}
				}
			}
		}
	case ast.Expr:
		r.eval(n, s, rep)
	}
}

func (r *ctRun) assign(lhs ast.Expr, f ctFact, s state[ctFact]) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj := objectOf(r.info, id); obj != nil {
			s[obj] = f
		}
		return
	}
	// Element/field stores: the aggregate's history is no longer a single
	// ciphertext's — drop tracking for the root.
	if root := rootObject(r.info, lhs); root != nil {
		s[root] = ctFact{}
	}
}

// eval computes the fact of an expression, dispatching evaluator calls.
func (r *ctRun) eval(e ast.Expr, s state[ctFact], rep bool) ctFact {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := objectOf(r.info, e); obj != nil {
			return s[obj]
		}
	case *ast.CallExpr:
		return r.call(e, s, rep)
	case *ast.UnaryExpr:
		return r.eval(e.X, s, rep)
	case *ast.StarExpr:
		return r.eval(e.X, s, rep)
	case *ast.FuncLit:
		sub := &ctRun{info: r.info}
		if rep {
			sub.reportf = r.reportf
		}
		exit := sub.analyze(e.Body, s.clone())
		for obj, f := range exit {
			s[obj] = joinCt(s[obj], f)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			r.eval(elt, s, rep)
		}
	case *ast.IndexExpr:
		r.eval(e.Index, s, rep)
	case *ast.BinaryExpr:
		r.eval(e.X, s, rep)
		r.eval(e.Y, s, rep)
	}
	return ctFact{}
}

// operand resolves a ciphertext argument. tracked reports whether the value
// already had a known history before this op; an untracked, unconflicted
// value is bound to the baseline so later ops share a frame of reference.
// Alignment checks must gate on tracked — comparing a tracked fact against
// a fresh baseline would fabricate a level relation the program never made.
func (r *ctRun) operand(e ast.Expr, s state[ctFact], rep bool) (f ctFact, tracked bool) {
	f = r.eval(e, s, rep)
	if f.known {
		return f, true
	}
	if f.conflict {
		return f, false
	}
	f = ctBaseline
	if obj := objectOf(r.info, e); obj != nil {
		s[obj] = f
	}
	return f, false
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

// call interprets one call expression, applying the evaluator-op table when
// the callee is an evaluator operation over ciphertext operands.
func (r *ctRun) call(call *ast.CallExpr, s state[ctFact], rep bool) ctFact {
	name := calleeName(call)

	// Collect ciphertext-typed operands: a ciphertext receiver (ct.CopyNew,
	// ct.DropLevel) counts as the first operand.
	var cts []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isCiphertextExpr(r.info, sel.X) {
		cts = append(cts, sel.X)
	}
	for _, a := range call.Args {
		if isCiphertextExpr(r.info, a) {
			cts = append(cts, a)
		}
	}

	if len(cts) == 0 {
		// Not an evaluator op over tracked values: evaluate args for nested
		// calls and move on.
		for _, a := range call.Args {
			r.eval(a, s, rep)
		}
		return ctFact{}
	}

	// Evaluate non-ciphertext args for nested calls.
	for _, a := range call.Args {
		if !isCiphertextExpr(r.info, a) {
			r.eval(a, s, rep)
		}
	}

	switch name {
	case "DropLevel":
		f, _ := r.operand(cts[0], s, rep)
		if !f.conflict {
			f.drops += int8(constIntOr(r.info, call.Args, 1))
		}
		r.assign(cts[0], f, s)
		return ctFact{}

	case "Add", "Sub", "AddConst":
		if len(cts) >= 2 {
			a, aTracked := r.operand(cts[0], s, rep)
			b, bTracked := r.operand(cts[1], s, rep)
			if aTracked && bTracked {
				r.checkAligned(call, name, a, b, rep)
			}
			if a.conflict || b.conflict {
				return ctConflict
			}
			return ctFact{known: true, drops: maxI8(a.drops, b.drops), pend: a.pend, deg: maxI8(a.deg, b.deg)}
		}
		f, _ := r.operand(cts[0], s, rep)
		return f

	case "AddAcc":
		// AddAcc(b, acc): acc += b in place.
		if len(cts) >= 2 {
			b, bTracked := r.operand(cts[0], s, rep)
			acc, accTracked := r.operand(cts[1], s, rep)
			if bTracked && accTracked {
				r.checkAligned(call, name, b, acc, rep)
			}
			out := ctConflict
			if !b.conflict && !acc.conflict {
				out = ctFact{known: true, drops: maxI8(b.drops, acc.drops), pend: acc.pend, deg: maxI8(b.deg, acc.deg)}
			}
			r.assign(cts[1], out, s)
		}
		return ctFact{}

	case "Mul", "MulRelin", "MulPlain", "MulByConst":
		// No operand alignment check here: multiplication composes scales
		// (Δa·Δb is legal) and the evaluator aligns levels — the per-operand
		// pend/deg checks below catch the real violations.
		facts := make([]ctFact, len(cts))
		for i, ct := range cts {
			f, _ := r.operand(ct, s, rep)
			facts[i] = f
			if f.deg >= 2 {
				r.flag(rep, ct.Pos(),
					"%s on a degree-2 ciphertext (an earlier Mul was never relinearized): Relinearize first", name)
			}
			if f.pend >= 1 {
				r.flag(rep, ct.Pos(),
					"%s on a value already carrying %d unrescaled product(s): the scale reaches Δ^%d and overflows the modulus budget — Rescale first",
					name, f.pend, f.pend+2)
			}
		}
		out := ctFact{known: true, deg: 1}
		for _, f := range facts {
			if f.conflict {
				return ctConflict
			}
			out.drops = maxI8(out.drops, f.drops)
			out.pend = maxI8(out.pend, f.pend)
		}
		out.pend++
		if name == "Mul" {
			out.deg = 2 // not relinearized
		}
		return out

	case "Relinearize":
		f, _ := r.operand(cts[0], s, rep)
		if !f.conflict {
			f.deg = 1
		}
		return f

	case "Rescale":
		f, _ := r.operand(cts[0], s, rep)
		if !f.conflict {
			f.drops++
			if f.pend > 0 {
				f.pend--
			}
		}
		return f

	case "Rotate", "Conjugate", "Neg", "CopyNew", "RotateExt":
		f, _ := r.operand(cts[0], s, rep)
		return f

	default:
		// Unknown consumer (serialization, helpers, AddAligned, bootstrap,
		// RaiseModulus): evaluate and stop tracking the result. Ciphertext
		// args keep their facts — the convention is that evaluator-style
		// helpers return fresh ciphertexts rather than mutating inputs.
		for _, ct := range cts {
			r.eval(ct, s, rep)
		}
		return ctFact{}
	}
}

// checkAligned reports level and scale misalignment between two operands of
// a binary op. Callers gate on both operands being tracked.
func (r *ctRun) checkAligned(call *ast.CallExpr, name string, a, b ctFact, rep bool) {
	if !a.known || !b.known {
		return
	}
	if a.pend != b.pend {
		r.flag(rep, call.Pos(),
			"%s operands carry different pending rescales (%d vs %d): their scales differ (Δ^%d vs Δ^%d) and the evaluator will reject them — Rescale the deeper operand first",
			name, a.pend, b.pend, a.pend+1, b.pend+1)
		return
	}
	if a.drops != b.drops {
		r.flag(rep, call.Pos(),
			"%s operands sit at different levels (%d vs %d drops below their common source): the implicit align copies and truncates — DropLevel/Rescale explicitly",
			name, a.drops, b.drops)
	}
}

// isCiphertextExpr reports whether e's static type is a (pointer to a)
// ciphertext.
func isCiphertextExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Ciphertext" || name == "ExtCiphertext"
}

// constIntOr extracts the first argument as a small constant int, or def.
func constIntOr(info *types.Info, args []ast.Expr, def int) int {
	if len(args) == 0 {
		return def
	}
	tv, ok := info.Types[args[0]]
	if !ok || tv.Value == nil {
		return def
	}
	if n, err := strconv.Atoi(tv.Value.ExactString()); err == nil && n >= 0 && n < 64 {
		return n
	}
	return def
}

func maxI8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}
