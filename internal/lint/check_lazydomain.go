package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// resDom is the residue-domain lattice of the lazy-reduction contract
// (DESIGN.md "Static invariants"): every uint64 residue is canonical in
// [0, q) or lazy in [0, 2q) (the Harvey butterfly / fused-MAC family). Join is
// max: not knowing which path produced a value means assuming the wider
// window.
type resDom uint8

const (
	resCanon resDom = iota // [0, q) — canonical; also the optimistic unknown
	resLazy2               // [0, 2q)
)

func (d resDom) String() string {
	if d == resLazy2 {
		return "[0,2q)"
	}
	return "[0,q)"
}

func joinDom(a, b resDom) resDom {
	if a > b {
		return a
	}
	return b
}

// LazyDomain flags lazy residues escaping their accumulation window: a
// flow-sensitive, interprocedural residue-domain analysis on the SSA-lite
// engine. The lazy-reduction kernels in internal/ring deliberately return
// values in [0, 2q) — congruent to the canonical residue but not equal to it
// — and their contract requires every lazy window to close with a ReduceFinal
// sweep (or feed the NTT kernels, which fold the sweep into their last pass).
// Values produced by the ring lazy helper family carry their domain through
// assignments, row aggregates, closures and module-local calls; a
// canonical-expecting sink (any ring helper outside the lazy family, or a
// module function whose summary says the parameter must be canonical) reached
// by a lazy value with no ReduceFinal/ReduceFinalVec sweep or NTT pass on that
// path is a finding. A sweep elsewhere in the function does not sanction the
// unswept path.
var LazyDomain = &Check{
	Name: "lazydomain",
	Doc:  "lazy [0,2q) residue reaches a canonical-expecting sink with no dominating ReduceFinal sweep",
	Run:  runLazyDomain,
}

func runLazyDomain(pass *Pass) {
	if pass.InPkg(ringPkg) {
		// The ring package is the home of the lazy kernels; its windows are
		// verified by the bit-identity tests and the modular-ops fuzzer.
		return
	}
	env := lazyEnvOf(pass.Module)
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
			run := &lazyRun{
				env:      env,
				info:     pass.Pkg.Info,
				findings: new(int),
				reportf:  pass.Reportf,
			}
			run.analyze(body, nil)
		})
	}
}

// lazyEnv is the module-scoped half of the analysis: the function index and
// the memoized per-function summaries.
type lazyEnv struct {
	idx  *funcIndex
	sums map[*types.Func]*lazySummary
}

func lazyEnvOf(mod *Module) *lazyEnv {
	return mod.cached("lazydomain.env", func() any {
		return &lazyEnv{
			idx:  buildFuncIndex(mod),
			sums: map[*types.Func]*lazySummary{},
		}
	}).(*lazyEnv)
}

// lazySummary is the callable abstraction of one module function: what the
// caller needs to know to push residue domains through the call without
// looking at the body again.
type lazySummary struct {
	computing bool
	params    []types.Object // declared parameters, in order
	ret       resDom         // join of return-value domains, canonical inputs
	outCanon  []resDom       // exit domain of each param, canonical inputs
	tolerant  []bool         // param i accepts a [0,2q) input with no new finding
	retLazy   []resDom       // return domain when param i is seeded [0,2q)
	outLazy   []resDom       // exit domain of param i when seeded [0,2q)
}

// summary computes (and memoizes) the summary of a module function by
// analyzing its body once with canonical parameters and once per parameter
// with that parameter seeded lazy. Recursion bottoms out conservatively: a
// summary requested while it is being computed reads as an unknown callee.
func (env *lazyEnv) summary(fn *types.Func) *lazySummary {
	if s, ok := env.sums[fn]; ok {
		if s == nil || s.computing {
			return nil
		}
		return s
	}
	decl, ok := env.idx.decls[fn]
	if !ok || decl.Body == nil {
		env.sums[fn] = nil
		return nil
	}
	pkg := env.idx.pkgOf[fn]
	if pkg.Rel == ringPkg || strings.HasPrefix(pkg.Rel, ringPkg+"/") {
		// Ring callees are described by the built-in contract table, not by
		// analyzing their (deliberately raw) bodies.
		env.sums[fn] = nil
		return nil
	}
	s := &lazySummary{computing: true}
	env.sums[fn] = s

	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					s.params = append(s.params, obj)
				}
			}
		}
	}

	runOnce := func(entry state[resDom]) (ret resDom, exit state[resDom], findings int) {
		run := &lazyRun{env: env, info: pkg.Info, findings: new(int)}
		exit = run.analyze(decl.Body, entry)
		return run.ret, exit, *run.findings
	}

	ret, exit, base := runOnce(nil)
	s.ret = ret
	for _, p := range s.params {
		s.outCanon = append(s.outCanon, exit[p])
	}
	for _, p := range s.params {
		entry := state[resDom]{p: resLazy2}
		retL, exitL, n := runOnce(entry)
		s.tolerant = append(s.tolerant, n <= base)
		s.retLazy = append(s.retLazy, retL)
		s.outLazy = append(s.outLazy, exitL[p])
	}
	s.computing = false
	return s
}

// lazyRun analyzes one function body (or function literal).
type lazyRun struct {
	env      *lazyEnv
	info     *types.Info
	ret      resDom // join over return-value domains, accumulated in replay
	findings *int
	reportf  func(pos token.Pos, format string, args ...any) // nil = silent
}

// analyze runs the flow problem over body and returns the exit state.
func (r *lazyRun) analyze(body *ast.BlockStmt, entry state[resDom]) state[resDom] {
	cfg := BuildCFG(body)
	var exit state[resDom]
	f := &flow[resDom]{
		cfg:      cfg,
		joinFact: joinDom,
		entry:    entry,
		transfer: func(n ast.Node, s state[resDom], report bool) {
			r.node(n, s, report)
		},
	}
	exit = f.solve()
	return exit
}

// flag records one finding (replay pass only).
func (r *lazyRun) flag(rep bool, pos token.Pos, format string, args ...any) {
	if !rep {
		return
	}
	*r.findings++
	if r.reportf != nil {
		r.reportf(pos, format, args...)
	}
}

// node is the transfer function: one CFG node's effect on the state.
func (r *lazyRun) node(n ast.Node, s state[resDom], rep bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		r.assignStmt(n, s, rep)
	case *ast.ExprStmt:
		r.eval(n.X, s, rep)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			d := r.eval(res, s, rep)
			if rep {
				r.ret = joinDom(r.ret, d)
			}
		}
	case *ast.SendStmt:
		r.eval(n.Chan, s, rep)
		r.eval(n.Value, s, rep)
	case *ast.DeferStmt:
		r.eval(n.Call, s, rep)
	case *ast.GoStmt:
		r.eval(n.Call, s, rep)
	case *ast.IncDecStmt:
		r.eval(n.X, s, rep)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Values) == 1 && len(vs.Names) > 1 {
				// var a, b = f(): every name gets the joined call domain.
				d := r.eval(vs.Values[0], s, rep)
				for _, name := range vs.Names {
					if obj := r.info.Defs[name]; obj != nil {
						s[obj] = d
					}
				}
				continue
			}
			for i, name := range vs.Names {
				d := resCanon
				if i < len(vs.Values) {
					d = r.eval(vs.Values[i], s, rep)
				}
				if obj := r.info.Defs[name]; obj != nil {
					s[obj] = d
				}
			}
		}
	case ast.Expr:
		r.eval(n, s, rep)
	}
}

func (r *lazyRun) assignStmt(n *ast.AssignStmt, s state[resDom], rep bool) {
	switch {
	case len(n.Lhs) == len(n.Rhs):
		doms := make([]resDom, len(n.Rhs))
		for i, rhs := range n.Rhs {
			doms[i] = r.eval(rhs, s, rep)
		}
		for i, lhs := range n.Lhs {
			d := doms[i]
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				// Compound assignment (+=, etc.): join with the old value.
				d = joinDom(d, r.eval(lhs, s, false))
			}
			r.assign(lhs, d, s)
		}
	case len(n.Rhs) == 1:
		// Tuple assignment from a multi-value call: every target gets the
		// call's joined return domain.
		d := r.eval(n.Rhs[0], s, rep)
		for _, lhs := range n.Lhs {
			r.assign(lhs, d, s)
		}
	}
}

// assign writes a domain to an lvalue: strong update for a plain variable,
// weak (joining) update on the root for element/field/pointer targets.
func (r *lazyRun) assign(lhs ast.Expr, d resDom, s state[resDom]) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj := objectOf(r.info, id); obj != nil {
			s[obj] = d
		}
		return
	}
	if root := rootObject(r.info, lhs); root != nil {
		s[root] = joinDom(s[root], d)
	}
}

// eval computes the residue domain of an expression, reporting lazy values
// reaching canonical-expecting sinks along the way (replay pass only).
func (r *lazyRun) eval(e ast.Expr, s state[resDom], rep bool) resDom {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := objectOf(r.info, e); obj != nil {
			return s[obj]
		}
		return resCanon
	case *ast.CallExpr:
		return r.call(e, s, rep)
	case *ast.BinaryExpr:
		// Raw residue arithmetic outside ring is rawmod's business; for the
		// sanctioned cases (shifts, comparisons, masks) the join is safe.
		return joinDom(r.eval(e.X, s, rep), r.eval(e.Y, s, rep))
	case *ast.IndexExpr:
		r.eval(e.Index, s, rep)
		if root := rootObject(r.info, e); root != nil {
			return s[root]
		}
		return r.eval(e.X, s, rep)
	case *ast.SliceExpr:
		if root := rootObject(r.info, e); root != nil {
			return s[root]
		}
		return r.eval(e.X, s, rep)
	case *ast.UnaryExpr:
		return r.eval(e.X, s, rep)
	case *ast.StarExpr:
		return r.eval(e.X, s, rep)
	case *ast.TypeAssertExpr:
		return r.eval(e.X, s, rep)
	case *ast.SelectorExpr:
		// Field loads and method values: domains do not flow through the
		// heap in this analysis; assume canonical.
		return resCanon
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			r.eval(elt, s, rep)
		}
		return resCanon
	case *ast.FuncLit:
		r.closure(e, s, rep)
		return resCanon
	default:
		return resCanon
	}
}

// closure analyzes a function literal in place: captured variables carry
// their current facts in, and the literal's effects on captured roots join
// back out (the closure may run on the spot, on the bounded pool, or later —
// joining means a sweep inside a maybe-run closure does not sanction the
// caller's state).
func (r *lazyRun) closure(fl *ast.FuncLit, s state[resDom], rep bool) {
	exit := r.subRun(fl, s, rep)
	for obj, d := range exit {
		s[obj] = joinDom(s[obj], d)
	}
}

// closureExec analyzes a function literal that is guaranteed to execute
// before the call returns (the ForEachLimb / RunTasks parallel-for bodies):
// the closure's exit facts overwrite the caller's, so a ReduceFinalVec sweep
// inside the limb body canonicalizes the rows it swept.
func (r *lazyRun) closureExec(fl *ast.FuncLit, s state[resDom], rep bool) {
	exit := r.subRun(fl, s, rep)
	for obj, d := range exit {
		s[obj] = d
	}
}

func (r *lazyRun) subRun(fl *ast.FuncLit, s state[resDom], rep bool) state[resDom] {
	sub := &lazyRun{env: r.env, info: r.info, findings: new(int)}
	if rep {
		sub.findings = r.findings
		sub.reportf = r.reportf
	}
	return sub.analyze(fl.Body, s.clone())
}

// call pushes domains through one call expression.
func (r *lazyRun) call(call *ast.CallExpr, s state[resDom], rep bool) resDom {
	// Builtins that move residues between aggregates.
	if name, ok := builtinName(r.info, call); ok {
		switch name {
		case "copy":
			if len(call.Args) == 2 {
				d := r.eval(call.Args[1], s, rep)
				if root := rootObject(r.info, call.Args[0]); root != nil {
					s[root] = joinDom(s[root], d)
				}
				return resCanon
			}
		case "append":
			d := resCanon
			for _, a := range call.Args {
				d = joinDom(d, r.eval(a, s, rep))
			}
			return d
		case "len", "cap", "make", "new", "delete", "close", "panic", "print", "println", "min", "max":
			for _, a := range call.Args {
				r.eval(a, s, rep)
			}
			return resCanon
		}
	}

	fn := callee(r.info, call)
	if fn == nil {
		// Indirect call or conversion: evaluate arguments (conversions keep
		// the domain; indirect calls are not sinks we can name).
		d := resCanon
		isConv := false
		if len(call.Args) == 1 {
			if tv, ok := r.info.Types[call.Fun]; ok && tv.IsType() {
				isConv = true
			}
		}
		for _, a := range call.Args {
			ad := r.eval(a, s, rep)
			if isConv {
				d = joinDom(d, ad)
			}
		}
		return d
	}

	if isRingFunc(fn) && (fn.Name() == "ForEachLimb" || fn.Name() == "RunTasks") {
		// The parallel-for helpers run every closure argument to completion
		// before returning: apply closure effects as executed, not maybe-run.
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				r.closureExec(lit, s, rep)
			} else {
				r.eval(a, s, rep)
			}
		}
		return resCanon
	}

	args := make([]resDom, len(call.Args))
	for i, a := range call.Args {
		args[i] = r.eval(a, s, rep)
	}

	if isRingFunc(fn) {
		return r.ringCall(call, fn.Name(), args, s, rep)
	}

	if sum := r.env.summary(fn); sum != nil {
		return r.summaryCall(call, fn, sum, args, s, rep)
	}

	// Unknown callee (stdlib, interface method, in-progress recursion):
	// canonical-expecting on every argument, canonical result.
	for i, d := range args {
		if d > resCanon {
			r.flag(rep, call.Args[i].Pos(),
				"lazy %s residue passed to %s, which expects canonical [0,q) inputs: sweep with ReduceFinal/ReduceFinalVec first",
				d, fn.Name())
		}
	}
	return resCanon
}

// ringCall applies the built-in contract table for internal/ring callees.
func (r *lazyRun) ringCall(call *ast.CallExpr, name string, args []resDom, s state[resDom], rep bool) resDom {
	switch {
	case name == "Reduce" || name == "Reduce64" || name == "Reduce128":
		// Full Barrett reductions: any input domain, canonical result.
		return resCanon

	case isNTTEntry(name):
		// The NTT kernels fold the closing sweep into their last pass: any
		// input domain, canonical output (in the transformed sense).
		for _, a := range call.Args {
			if root := rootObject(r.info, a); root != nil {
				s[root] = resCanon
			}
		}
		return resCanon

	case strings.HasPrefix(name, "Put"):
		// Pool returns (PutRow, PutScratch): deallocation, not arithmetic —
		// a lazy row may go back to the pool, allocation re-zeroes it.
		return resCanon

	case strings.Contains(name, "ReduceFinal"):
		// The canonicalizing sweep of the [0,2q) window.
		if strings.Contains(name, "Vec") && len(call.Args) > 0 {
			if root := rootObject(r.info, call.Args[0]); root != nil {
				s[root] = resCanon
			}
		}
		return resCanon

	case strings.Contains(name, "Lazy"):
		// The lazy helper family: inputs tolerate [0,2q); results are lazy.
		// Row kernels (in-place accumulators) lazify their first argument.
		if strings.Contains(name, "Row") && len(call.Args) > 0 {
			if root := rootObject(r.info, call.Args[0]); root != nil {
				s[root] = resLazy2
			}
		}
		return resLazy2

	default:
		// Everything else in ring (AddMod, MulMod, MulModShoup, CenteredMod,
		// samplers, serializers): canonical-expecting.
		for i, d := range args {
			if d > resCanon {
				r.flag(rep, call.Args[i].Pos(),
					"lazy %s residue flows into ring.%s, which expects canonical [0,q) inputs: sweep with ReduceFinal/ReduceFinalVec first",
					d, name)
			}
		}
		return resCanon
	}
}

// isNTTEntry matches the transform entry points that accept lazy input,
// including the shared-scratch ForwardBatch.
func isNTTEntry(name string) bool {
	return name == "Forward" || name == "Inverse" || name == "ForwardBatch" ||
		strings.Contains(name, "NTT")
}

// summaryCall pushes domains through a summarized module function.
func (r *lazyRun) summaryCall(call *ast.CallExpr, fn *types.Func, sum *lazySummary, args []resDom, s state[resDom], rep bool) resDom {
	out := sum.ret
	for i, d := range args {
		if i >= len(sum.params) {
			break // variadic tail beyond declared params
		}
		if d == resCanon {
			continue
		}
		if !sum.tolerant[i] {
			r.flag(rep, call.Args[i].Pos(),
				"lazy %s residue passed to %s, whose parameter %q expects canonical [0,q) inputs: sweep with ReduceFinal/ReduceFinalVec first",
				d, fn.Name(), sum.params[i].Name())
			continue
		}
		out = joinDom(out, sum.retLazy[i])
	}
	// Out-effects on argument roots (a callee that sweeps or lazifies a row
	// the caller passed in).
	for i, a := range call.Args {
		if i >= len(sum.params) {
			break
		}
		if !isSliceLike(sum.params[i].Type()) {
			continue
		}
		root := rootObject(r.info, a)
		if root == nil {
			continue
		}
		if args[i] > resCanon && sum.tolerant[i] {
			s[root] = sum.outLazy[i]
		} else {
			s[root] = joinDom(s[root], sum.outCanon[i])
		}
	}
	return out
}

// builtinName reports the name of a builtin function call.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name, true
	}
	return "", false
}

// isRingFunc reports whether fn is declared in the module's internal/ring.
func isRingFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == ringPkg || strings.HasSuffix(p, "/"+ringPkg)
}

// isSliceLike reports whether t can carry an out-effect visible to the
// caller (slices, pointers, maps).
func isSliceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}
