// Command hydra-map lowers one procedure onto a card fleet with the Section
// III mapping strategies and prints the resulting task schedule: per-card
// computation/communication queues and the simulated timeline summary.
//
// Usage:
//
//	hydra-map -proc conv -cards 8 -units 512
//	hydra-map -proc poly -cards 8 -degree 59
//	hydra-map -proc boot -cards 16 -cts 2
//	hydra-map -proc fc   -cards 8 -units 1511
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hydra/internal/experiments"
	"hydra/internal/mapping"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func main() {
	proc := flag.String("proc", "conv", "procedure: conv, pool, fc, poly, pcmm, ccmm, boot")
	cards := flag.Int("cards", 8, "number of accelerator cards")
	units := flag.Int("units", 512, "parallel units (conv/pool/fc/pcmm/ccmm)")
	cts := flag.Int("cts", 8, "output/bootstrapped ciphertexts")
	degree := flag.Int("degree", 59, "polynomial degree (poly)")
	verbose := flag.Bool("v", false, "dump every task queue entry")
	gantt := flag.Bool("gantt", false, "render an ASCII Gantt chart of the schedule")
	flag.Parse()

	if err := run(*proc, *cards, *units, *cts, *degree, *verbose, *gantt); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-map:", err)
		os.Exit(1)
	}
}

func run(proc string, cards, units, cts, degree int, verbose, gantt bool) error {
	if cards < 1 {
		return fmt.Errorf("-cards %d: need at least one card", cards)
	}
	proto := experiments.HydraN(cards)
	cfg := proto.Sim
	cfg.CollectTrace = gantt
	b := task.NewBuilder(cards, proto.CardsPerServer)
	ctx := mapping.NewContext(b, cfg.Scheme, cards)

	var err error
	switch proc {
	case "conv":
		err = ctx.DistributeBroadcast(units, mapping.ConvBNUnit, cts, "ConvBN")
	case "pool":
		err = ctx.DistributeBroadcast(units, mapping.PoolUnit, cts, "Pool")
	case "fc":
		err = ctx.FC(units, "FC")
	case "pcmm":
		err = ctx.DistributeBroadcast(units, mapping.PCMMUnit, cts, "PCMM")
	case "ccmm":
		err = ctx.DistributeBroadcast(units, mapping.CCMMUnit, cts, "CCMM")
	case "poly":
		err = ctx.PolyEval(degree, "Poly")
	case "boot":
		times := proto.OpTimes()
		opts := mapping.DefaultBootstrapOptions(cfg.Scheme, cards, times)
		err = ctx.BootstrapBatch(cts, opts, times, "Boot")
	default:
		return fmt.Errorf("unknown procedure %q", proc)
	}
	if err != nil {
		return err
	}

	prog := b.Build()
	res, err := sim.Run(prog, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("procedure %s on %d cards: %d step(s)\n", proc, cards, len(prog.Steps))
	for si, st := range prog.Steps {
		nComp, nComm := 0, 0
		for c := 0; c < prog.Cards; c++ {
			nComp += len(st.Compute[c])
			nComm += len(st.Comm[c])
		}
		fmt.Printf("step %d %-8s compute tasks %5d, comm tasks %5d, span %8.3f ms\n",
			si, st.Name, nComp, nComm, res.Steps[si].Span*1e3)
		if verbose {
			for c := 0; c < prog.Cards; c++ {
				for i, t := range st.Compute[c] {
					dep := "CT_i"
					if t.WaitRecv >= 0 {
						dep = fmt.Sprintf("CT_d(recv %d)", t.WaitRecv)
					}
					fmt.Printf("  card %2d compute[%d] %-30s limbs=%d %s\n", c, i, t.Ops, t.Limbs, dep)
				}
				for i, t := range st.Comm[c] {
					kind := "send"
					if t.Kind == task.Recv {
						kind = "recv"
					}
					fmt.Printf("  card %2d comm[%d]    %s peers=%v bytes=%.1fMB\n", c, i, kind, t.Peers, t.Bytes/1e6)
				}
			}
		}
	}
	fmt.Printf("makespan %.3f ms, busiest-card compute %.3f ms, exposed comm %.3f ms (%.1f%%), %.1f MB moved\n",
		res.Makespan*1e3, res.MaxComputeBusy()*1e3, res.ExposedComm()*1e3, 100*res.CommShare(), res.BytesSent/1e6)
	fmt.Printf("operation totals: %s\n", res.OpTotals)
	if gantt {
		printGantt(res)
	}
	return nil
}

// printGantt renders per-card compute (#) and send (~) occupancy over time.
func printGantt(res *sim.Result) {
	const width = 100
	if res.Makespan <= 0 {
		return
	}
	rows := make(map[string][]byte) // "card/engine" -> lane
	lane := func(card int, engine string) []byte {
		key := fmt.Sprintf("%02d/%s", card, engine)
		if rows[key] == nil {
			r := make([]byte, width)
			for i := range r {
				r[i] = '.'
			}
			rows[key] = r
		}
		return rows[key]
	}
	for _, ev := range res.Trace {
		var engine string
		var mark byte
		switch ev.Kind {
		case "compute":
			engine, mark = "cu ", '#'
		case "send":
			engine, mark = "dtu", '~'
		default:
			continue
		}
		r := lane(ev.Card, engine)
		s := int(ev.Start / res.Makespan * width)
		e := int(ev.End / res.Makespan * width)
		if e >= width {
			e = width - 1
		}
		for i := s; i <= e; i++ {
			r[i] = mark
		}
	}
	fmt.Printf("\nschedule (0 … %.3f ms; # compute, ~ transmit):\n", res.Makespan*1e3)
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("card %s |%s|\n", k, rows[k])
	}
}
