// Command hydra-lint runs every check of internal/lint over the whole module
// it is started in: the FHE and concurrency invariants that go vet cannot
// see. It loads and type-checks the module with the standard library only,
// so it needs no dependencies beyond the Go toolchain.
//
// Usage:
//
//	hydra-lint
//
// It takes no flags and no arguments, prints each unsuppressed finding as
// file:line:col: [check] message, and exits 1 when any remain, 2 on a usage
// or load error.
//
// Intentional findings are suppressed in-source with
//
//	//lint:allow <check>[,<check>...] <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"hydra/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: hydra-lint (no flags or arguments; it checks the whole module)")
		return 2
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hydra-lint:", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hydra-lint:", err)
		return 2
	}
	bad := 0
	for _, d := range lint.Run(mod, lint.Checks()) {
		if d.Suppressed {
			continue
		}
		if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = r
		}
		fmt.Println(d)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "hydra-lint: %d finding(s)\n", bad)
		return 1
	}
	return 0
}
