// hydra-bench is the repository's benchmark: one command runs one named
// workload for --seconds from --seed, checks every output, prints every
// metric by name and unit, and ends with one JSON result line. See README.md
// in this directory for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hydra/internal/ring"
)

// value is one reported number; the result line carries name -> value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, exactly these keys.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance says what was measured, where and with what.
type provenance struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Scale       string  `json:"scale"`
	GitSHA      string  `json:"git_sha"`
	UTCTime     string  `json:"utc_time"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	LimbWorkers int     `json:"ring_limb_workers"`
	CPUModel    string  `json:"cpu_model"`
	RefMS       float64 `json:"ref_ms"`
	RefMedianMS float64 `json:"ref_run_median_ms"`
}

// resultFile is bench/out/result-<workload>[-traced].json.
type resultFile struct {
	Provenance   provenance         `json:"provenance"`
	Result       resultLine         `json:"result"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Measured     map[string]float64 `json:"measured"` // every number of the run, reported or not
	// Ops holds, per timed op and segment: wall time, and the reference
	// readings before and after it, all in ms.
	Ops   [][][3]float64 `json:"ops_segments_ms"`
	Notes map[string]any `json:"notes,omitempty"`
}

func main() {
	cfg := config{outDir: filepath.Join("bench", "out"), spoil: -1}
	var traceFlag, repeat int
	var check bool
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+" (with -repeat: empty for all)")
	flag.Int64Var(&cfg.seed, "seed", 1, "inputs are drawn from this seed")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "length of the timed loop")
	flag.IntVar(&traceFlag, "trace", 0, "1: the traced run, which reports the per-layer metrics; 0: the end-to-end metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "full, or smoke for tiny parameters (seconds in total)")
	flag.IntVar(&repeat, "repeat", 0, "run two sets of this many seeds per workload and print the steadiness table")
	flag.BoolVar(&check, "check", false, "with -repeat: apply the driver's acceptance rule and exit 1 if it fails")
	flag.Parse()
	if cfg.scale != "full" && cfg.scale != "smoke" {
		fatal(fmt.Errorf("unknown -scale %q", cfg.scale))
	}
	cfg.trace = traceFlag != 0

	if repeat > 0 {
		os.Exit(runRepeat(cfg, repeat, check))
	}
	if newWorkload(cfg.workload, cfg.smoke()) == nil {
		fatal(fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", ")))
	}
	line, err := execute(cfg, func() workload { return newWorkload(cfg.workload, cfg.smoke()) }, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydra-bench:", err)
	os.Exit(2)
}

// execute runs one workload, which fresh builds anew for each set-up, and
// writes its report to out: every metric of
// the run by name and unit, then the JSON result line, last. The result line
// is written even when ops failed; only a set-up that cannot be built, or a
// per-layer section that cannot run, is an error.
func execute(cfg config, fresh func() workload, out io.Writer) (resultLine, error) {
	b := newBench(cfg)
	res, err := b.run(fresh)
	if err != nil {
		return resultLine{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   res.failed == 0 && len(res.ops) > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	prov := gatherProvenance(cfg, median(b.refs))
	fmt.Fprintf(out, "# hydra-bench %s seed %d, %g s, traced %v, scale %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	fmt.Fprintf(out, "# %s, %s, GOMAXPROCS %d of %d, %d limb workers, %s\n", prov.GitSHA, prov.GoVersion, prov.GOMAXPROCS, prov.NProc, prov.LimbWorkers, prov.CPUModel)
	fmt.Fprintf(out, "# REF_MS %.3f, this run's reference median %.3f ms over %d readings\n", refMS, prov.RefMedianMS, len(b.refs))
	for _, d := range defs {
		v := b.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-34s %16.6f %s\n", d.name, v, d.unit)
	}
	if res.failed > 0 {
		fmt.Fprintf(out, "# %d of %d ops failed; first: %s\n", res.failed, res.attempted, res.firstFailure)
	}

	ops := make([][][3]float64, len(res.ops))
	for i, o := range res.ops {
		for _, sg := range o.segs {
			ops[i] = append(ops[i], [3]float64{sg.raw, sg.before, sg.after})
		}
	}
	if err := writeResults(cfg, b, resultFile{
		Provenance: prov, Result: line, FirstFailure: res.firstFailure, Measured: b.m, Notes: b.notes,
		Ops: ops,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-bench: result files:", err)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	fmt.Fprintln(out, string(data))
	return line, nil
}

func writeResults(cfg config, b *bench, rf resultFile) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := "result-" + cfg.workload
	if cfg.trace {
		name += "-traced"
		if err := b.tr.writeChrome(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name+".json"), append(data, '\n'), 0o644)
}

func gatherProvenance(cfg config, refMedian float64) provenance {
	return provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Scale: cfg.scale,
		GitSHA:      gitSHA(),
		UTCTime:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		LimbWorkers: ring.MaxWorkers(),
		CPUModel:    cpuModel(),
		RefMS:       refMS,
		RefMedianMS: refMedian,
	}
}

// gitSHA stamps the commit measured. A tree that is dirty, or whose state
// cannot be read, never gets a clean SHA; outside a git checkout (the
// driver's) it is "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil || len(strings.TrimSpace(string(status))) > 0 {
		sha += "+dirty"
	}
	return sha
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
