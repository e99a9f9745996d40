// Command hydrasim regenerates the tables and figures of the Hydra paper's
// evaluation section from the simulator.
//
// Usage:
//
//	hydrasim -exp table1|table2|table3|table4|table5|fig6|fig7|fig8|fig9|all
//	hydrasim -exp fig9 -benchmark ResNet-50
//	hydrasim -trace-json trace.json -benchmark ResNet-20 -cards 8
//
// With -trace-json the named benchmark is lowered onto a Hydra fleet of
// -cards cards and simulated with per-task trace collection; the scheduled
// compute/send/recv occurrences are written as JSON (to stdout with "-")
// instead of regenerating the paper artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hydra/internal/experiments"
	"hydra/internal/model"
	"hydra/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate: table1..table5, fig6..fig9, all")
	benchmark := flag.String("benchmark", "", "restrict fig9 to one benchmark (default: the paper's ResNet-50 and OPT-6.7B panels plus all comm-share curves)")
	traceJSON := flag.String("trace-json", "", "simulate one benchmark with trace collection and write the task-level schedule as JSON to this path (\"-\" = stdout)")
	cards := flag.Int("cards", 8, "fleet size for -trace-json")
	flag.Parse()
	if *cards < 1 {
		fmt.Fprintf(os.Stderr, "hydrasim: -cards %d: need at least one card\n", *cards)
		os.Exit(1)
	}

	if *traceJSON != "" {
		if err := runTraceJSON(*traceJSON, *benchmark, *cards); err != nil {
			fmt.Fprintln(os.Stderr, "hydrasim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *benchmark); err != nil {
		fmt.Fprintln(os.Stderr, "hydrasim:", err)
		os.Exit(1)
	}
}

// traceDump is the -trace-json output shape.
type traceDump struct {
	Benchmark string           `json:"benchmark"`
	Cards     int              `json:"cards"`
	Makespan  float64          `json:"makespan_seconds"`
	Events    []sim.TraceEvent `json:"events"`
}

func runTraceJSON(path, benchmark string, cards int) error {
	if benchmark == "" {
		benchmark = "ResNet-20"
	}
	net, err := findBenchmark(benchmark)
	if err != nil {
		return err
	}
	proto := experiments.HydraN(cards)
	prog, err := proto.Build(net)
	if err != nil {
		return err
	}
	cfg := proto.Sim
	cfg.CollectTrace = true
	res, err := sim.Run(prog, cfg)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traceDump{Benchmark: net.Name, Cards: cards, Makespan: res.Makespan, Events: res.Trace}); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("hydrasim: wrote %d trace events to %s\n", len(res.Trace), path)
	}
	return nil
}

// findBenchmark resolves a benchmark by name from the paper's four networks
// plus the functional-validation ResNet-20.
func findBenchmark(name string) (model.Network, error) {
	for _, n := range append(model.Benchmarks(), model.ResNet20()) {
		if n.Name == name {
			return n, nil
		}
	}
	return model.Network{}, fmt.Errorf("unknown benchmark %q", name)
}

func run(exp, benchmark string) error {
	runners := map[string]func(string) error{
		"table1": func(string) error { fmt.Print(experiments.FormatTable1()); return nil },
		"table2": func(string) error {
			res, err := experiments.Table2()
			if err != nil {
				return err
			}
			fmt.Print(res.Format())
			return nil
		},
		"table3": func(string) error {
			res, err := experiments.Table3()
			if err != nil {
				return err
			}
			fmt.Print(res.Format())
			return nil
		},
		"table4": func(string) error { fmt.Print(experiments.FormatTable4()); return nil },
		"table5": func(string) error {
			rows, err := experiments.Table5()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable5(rows))
			return nil
		},
		"fig6": func(string) error {
			series, err := experiments.Fig6()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig6(series))
			return nil
		},
		"fig7": func(string) error {
			entries, err := experiments.Fig7()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig7(entries))
			return nil
		},
		"fig8": func(string) error {
			entries, err := experiments.Fig8()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig8(entries))
			return nil
		},
		"fig9": runFig9,
	}
	if exp == "all" {
		for _, name := range []string{"table1", "table2", "table3", "table4", "table5", "fig6", "fig7", "fig8", "fig9"} {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](benchmark); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return fn(benchmark)
}

func runFig9(benchmark string) error {
	nets := []model.Network{model.ResNet50(), model.OPT67B()}
	if benchmark != "" {
		nets = nil
		for _, n := range model.Benchmarks() {
			if n.Name == benchmark {
				nets = []model.Network{n}
			}
		}
		if nets == nil {
			return fmt.Errorf("unknown benchmark %q", benchmark)
		}
	}
	for _, net := range nets {
		sweep, err := experiments.Fig9(net, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig9(sweep))
	}
	if benchmark == "" {
		// Fig. 9(c): comm-share growth for all four benchmarks.
		fmt.Println("Fig. 9(c): communication share vs cards")
		for _, net := range model.Benchmarks() {
			sweep, err := experiments.Fig9(net, nil)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s", net.Name)
			for _, v := range sweep.CommShare {
				fmt.Printf(" %6.2f%%", 100*v)
			}
			fmt.Println()
		}
	}
	return nil
}
