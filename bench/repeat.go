package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkJSON is the part of BENCHMARK.json the steadiness check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// runRepeat runs two sets of n untraced runs per workload, each run a fresh
// process with its own seed, and judges them as the driver does: within a
// set, the distance between the quartiles of a metric over its median must
// stay inside the metric's bound (setup_s excepted); between the sets, the
// second median may not be worse than the first by more than the bound.
// It prints the table bench/README.md carries: the first set-up beside the
// median of the run's three, raw op time beside referenced.
func runRepeat(cfg config, n int, check bool) int {
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	names := workloadNames
	if cfg.workload != "" {
		if newWorkload(cfg.workload, cfg.smoke()) == nil {
			fatal(fmt.Errorf("unknown -workload %q", cfg.workload))
		}
		names = []string{cfg.workload}
	}
	// values[workload][set][metric] = one value per run.
	values := map[string][2]map[string][]float64{}
	for _, name := range names {
		values[name] = [2]map[string][]float64{{}, {}}
	}
	failedRuns := 0
	for set := 0; set < 2; set++ {
		for _, name := range names {
			for i := 0; i < n; i++ {
				seed := cfg.seed + int64(set*n+i)
				cmd := exec.Command(self,
					"--workload", name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
					"--trace", "0", "-scale", cfg.scale)
				cmd.Stderr = os.Stderr
				if _, err := cmd.Output(); err != nil {
					fmt.Fprintf(os.Stderr, "hydra-bench: %s seed %d: %v\n", name, seed, err)
					failedRuns++
					continue
				}
				data, err := os.ReadFile(filepath.Join(cfg.outDir, "result-"+name+".json"))
				if err != nil {
					fatal(err)
				}
				var rf resultFile
				if err := json.Unmarshal(data, &rf); err != nil {
					fatal(err)
				}
				for k, v := range rf.Measured {
					values[name][set][k] = append(values[name][set][k], v)
				}
				fmt.Fprintf(os.Stderr, "set %d %-12s seed %-4d op_ms %10.3f raw %10.3f setup_s %7.3f alloc %9.3f resident %8.3f\n",
					set+1, name, seed, rf.Measured["op_ms"], rf.Measured["bench.op_raw_ms_p50"],
					rf.Measured["setup_s"], rf.Measured["alloc_mb_per_op"], rf.Measured["resident_mb"])
			}
		}
	}

	bad := failedRuns
	fmt.Printf("| workload | metric | set 1 median | set 1 spread | set 2 median | set 2 spread | set 2 / set 1 | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	row := func(name, metric string, bound float64, lowerBetter, gated bool) {
		a, b := values[name][0][metric], values[name][1][metric]
		if len(a) < 2 || len(b) < 2 {
			return
		}
		ma, mb := median(a), median(b)
		sa, sb := spread(a), spread(b)
		worse := mb/ma - 1
		if !lowerBetter {
			worse = ma/mb - 1
		}
		verdict := ""
		if gated {
			verdict = "ok"
			if metric != "setup_s" && (sa > bound || sb > bound) {
				verdict = "SPREAD"
			} else if worse > bound {
				verdict = "SHIFT"
			} else if metric != "setup_s" && (sa > bound/3 || sb > bound/3) {
				verdict = "ok (over a third)"
			}
			if verdict == "SPREAD" || verdict == "SHIFT" {
				bad++
			}
		}
		bs := ""
		if gated {
			bs = fmt.Sprintf("%.2f", bound)
		}
		fmt.Printf("| %s | %s | %.4g | %.1f %% | %.4g | %.1f %% | %.3f | %s | %s |\n",
			name, metric, ma, 100*sa, mb, 100*sb, mb/ma, bs, verdict)
	}
	for _, name := range names {
		for _, m := range bj.EndToEnd {
			row(name, m.Name, m.Bound, m.Better != "higher", true)
		}
		row(name, "bench.setup_first_s", 0, true, false)
		row(name, "bench.op_raw_ms_p50", 0, true, false)
		row(name, "bench.ref_ms_p50", 0, true, false)
	}
	if failedRuns > 0 {
		fmt.Printf("\n%d runs failed.\n", failedRuns)
	}
	if check && bad > 0 {
		return 1
	}
	return 0
}
