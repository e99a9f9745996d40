package lint

import "go/ast"

// hotPkgs are the packages whose concurrency must flow through the bounded
// worker pool in internal/ring/pool.go.
var hotPkgs = []string{"internal/ring", "internal/ckks", "internal/hefloat"}

// RawGo flags `go` statements in the hot arithmetic packages. Limb- and
// ciphertext-level fan-out there must go through ring.ForEachLimb: the
// pool's non-blocking slot budget is what keeps nested parallelism (cluster
// cards × evaluator ops × limbs) bounded by ring.MaxWorkers instead of
// oversubscribing the machine, and its caller-participates rule is what
// makes nesting deadlock-free. A raw `go` statement bypasses both
// guarantees.
var RawGo = &Check{
	Name: "rawgo",
	Run:  runRawGo,
}

func runRawGo(pass *Pass) {
	if !pass.InPkg(hotPkgs...) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Go, "raw go statement in hot package %s: use ring.ForEachLimb (bounded pool)", pass.Pkg.Rel)
			}
			return true
		})
	}
}
