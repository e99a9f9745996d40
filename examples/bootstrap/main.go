// Bootstrapping deep-dive: tunes the DFT parameters of CoeffToSlot /
// SlotToCoeff with the Eq. 1 model (Radix vs bs vs gs, Table V), then builds
// and simulates a cooperative multi-card bootstrap with the paper's mapping:
// uniform baby steps and tree aggregation of the giant-step partial sums.
package main

import (
	"fmt"
	"log"

	"hydra/internal/mapping"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func main() {
	cfg := sim.HydraConfig()
	const cards = 8
	limbs := cfg.Scheme.BootLimbs()
	com := cfg.Network.TransferTime(float64(cfg.Scheme.CiphertextBytes(limbs)), 0, 1, cards)
	times := mapping.OpTimesFor(cfg.Card, cfg.Scheme, limbs, com)

	fmt.Println("== Eq. 1 parameter search (logSlots 15, 3 DFT levels) ==")
	for _, n := range []int{1, 8, 64} {
		t := times
		if n == 1 {
			t.Com = 0
		}
		params, total, err := mapping.OptimizeDFT(15, 3, n, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d cards: Radix=%v bs=%v, one DFT pass %7.2f ms\n",
			n, params.Radix, params.BS, total*1e3)
	}

	fmt.Println("\n== One cooperative bootstrap on 8 cards ==")
	opts := mapping.DefaultBootstrapOptions(cfg.Scheme, cards, times)
	b := task.NewBuilder(cards, cards)
	ctx := mapping.NewContext(b, cfg.Scheme, cards)
	ctx.Limbs = limbs
	dft := func(label string) {
		for i, r := range opts.DFT.Radix {
			if err := ctx.MatVec(opts.DFT.BS[i], 2*r/opts.DFT.BS[i], label); err != nil {
				log.Fatal(err)
			}
		}
	}
	dft("C2S")
	if err := ctx.PolyEval(opts.EvaExpDeg, "EvaExp"); err != nil {
		log.Fatal(err)
	}
	dft("S2C")
	res, err := sim.Run(b.Build(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tree + uniform bs: %.2f ms (exposed comm %.2f ms)\n", res.Makespan*1e3, res.ExposedComm()*1e3)

	fmt.Println("\n== Batch bootstrapping 2 ciphertexts on 16 cards (split groups) ==")
	b = task.NewBuilder(16, 8)
	ctx = mapping.NewContext(b, cfg.Scheme, 16)
	if err := ctx.BootstrapBatch(2, opts, times, "Boot"); err != nil {
		log.Fatal(err)
	}
	res, err = sim.Run(b.Build(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  2 bootstraps across 2x8-card groups: %.2f ms, %s\n",
		res.Makespan*1e3, res.OpTotals)
}
