// Command hydra-params searches the bootstrapping-DFT parameter space of
// Eq. 1 — per-level Radix and baby-step count under a multiplication-depth
// budget — for a given card count, reproducing the machinery behind Table V.
// The full Table V grid is `hydrasim -exp table5`.
//
// Usage:
//
//	hydra-params -logslots 15 -levels 3 -cards 64
package main

import (
	"flag"
	"fmt"
	"os"

	"hydra/internal/experiments"
	"hydra/internal/mapping"
)

func main() {
	logSlots := flag.Int("logslots", 15, "log2 of the ciphertext slot count")
	levels := flag.Int("levels", 3, "DFT levels (multiplication-depth budget)")
	cards := flag.Int("cards", 1, "number of accelerator cards")
	flag.Parse()
	if *cards < 1 {
		fmt.Fprintf(os.Stderr, "hydra-params: -cards %d: need at least one card\n", *cards)
		os.Exit(1)
	}

	proto := experiments.HydraN(*cards)
	times := proto.OpTimes()
	params, total, err := mapping.OptimizeDFT(*logSlots, *levels, *cards, times)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hydra-params:", err)
		os.Exit(1)
	}
	fmt.Printf("logSlots=%d levels=%d cards=%d\n", *logSlots, *levels, *cards)
	fmt.Printf("optimal Radix=%v bs=%v  (one DFT pass: %.3f ms)\n", params.Radix, params.BS, total*1e3)
	for i := range params.Radix {
		gs := 2 * params.Radix[i] / params.BS[i]
		fmt.Printf("  level %d: radix %3d, bs %2d, gs %3d, level time %.3f ms\n",
			i, params.Radix[i], params.BS[i], gs,
			mapping.DFTLevelTime(params.Radix[i], params.BS[i], *cards, times)*1e3)
	}
}
