// hydra-compile is the IR-compiler benchmark: it builds the paper's two
// keyswitch-heavy programs (a BSGS linear transform and the whole bootstrap
// pipeline after ModRaise) plus a ResNet-style block with internal/fhir's
// frontends, compiles each with the full pass pipeline and with each
// optimization pass left out in turn, and reports the static cost model
// (keyswitches, decompositions, ModDowns, rescales) per variant together
// with wall-clock compile time and, for the evaluable programs, the measured
// end-to-end naive-vs-optimized evaluation time on real ciphertexts.
//
// The output is BENCH_compile.json with the same provenance header as the
// kernel benchmark files (commit SHA + UTC time, from BENCH_GIT_SHA /
// BENCH_UTC_TIME when scripts/bench.sh exports them).
//
// With -check the tool exits non-zero unless hoisting-reuse + CSE remove at
// least the target share of keyswitch operations (default 20%) on the BSGS
// and bootstrap programs — the compiler's headline acceptance bar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/fhir"
	"hydra/internal/hefloat"
)

type variantReport struct {
	Name      string  `json:"name"`
	KeySwitch int     `json:"keyswitch"`
	Decomp    int     `json:"decomp"`
	ModDown   int     `json:"moddown"`
	Rescale   int     `json:"rescale"`
	PMult     int     `json:"pmult"`
	Values    int     `json:"values"`
	CompileMs float64 `json:"compile_ms"`
}

type programReport struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Slots       int             `json:"slots"`
	Levels      int             `json:"levels"`
	Variants    []variantReport `json:"variants"`
	// KeySwitchReductionPct is naive → fully optimized, the headline number.
	KeySwitchReductionPct float64 `json:"keyswitch_reduction_pct"`
	// RotationsMerged counts rotation keyswitches that ended up inside a
	// shared-decomposition group in the fully optimized program (extended-
	// basis baskets and rotation sums, plus tier-A hoist groups).
	RotationsMerged int `json:"rotations_merged"`
	// DecompsSaved is the digit-decomposition count hoisting removes
	// (no-hoist variant minus full pipeline).
	DecompsSaved int `json:"decomps_saved"`
	// ModDownsSaved is the runtime ModDown count the extended-basis fusions
	// avoid relative to the naive compilation.
	ModDownsSaved int `json:"moddowns_saved"`
	// ValuesCSERemoved counts IR values common-subexpression elimination
	// deleted (no-cse minus full pipeline).
	ValuesCSERemoved int     `json:"values_cse_removed"`
	EvalNaiveMs      float64 `json:"eval_naive_ms,omitempty"`
	EvalOptimizedMs  float64 `json:"eval_optimized_ms,omitempty"`
}

type report struct {
	GitSHA   string          `json:"git_sha"`
	UTCTime  string          `json:"utc_time"`
	GOOS     string          `json:"goos"`
	GOARCH   string          `json:"goarch"`
	Programs []programReport `json:"programs"`
}

// benchProgram is one benchmark shape: the body of a one-input program plus
// the parameter set (ckks.TestParameters(logN, levels)) it compiles under and
// whether the end-to-end evaluation timing runs.
type benchProgram struct {
	name, desc string
	levels     int
	logN       int
	evaluate   bool
	checked    bool // participates in the -check reduction gate
	body       func(b *fhir.Builder, x *fhir.Value, params *ckks.Parameters) (*fhir.Value, error)
}

func main() {
	out := flag.String("out", "BENCH_compile.json", "output JSON path")
	check := flag.Bool("check", false, "fail unless the checked programs hit the keyswitch-reduction target")
	target := flag.Float64("target", 20, "required keyswitch reduction percent for -check")
	flag.Parse()

	programs := []benchProgram{
		{
			name:     "bsgs-dense",
			desc:     "dense 16x16 BSGS linear transform (bs=gs=4), every diagonal non-zero",
			levels:   3,
			logN:     5,
			evaluate: true,
			checked:  true,
			body: func(b *fhir.Builder, x *fhir.Value, params *ckks.Parameters) (*fhir.Value, error) {
				lt, err := denseTransform(params.Slots(), math.Cos)
				if err != nil {
					return nil, err
				}
				return b.LinTrans(x, lt, 4, "m"), nil
			},
		},
		{
			name:    "bootstrap",
			desc:    "bootstrap after ModRaise at N=512: CoeffToSlot, double-angle sine, SlotToCoeff (conformance's bootstrap-small)",
			levels:  20,
			logN:    9,
			checked: true,
			body: func(b *fhir.Builder, z *fhir.Value, params *ckks.Parameters) (*fhir.Value, error) {
				// Keyless and plan-less: the frontend reads only the transforms.
				bt, err := hefloat.NewBootstrapper(params, ckks.NewEncoder(params), nil,
					hefloat.BootstrapperOptions{K: 16, ReferenceBSGS: true})
				if err != nil {
					return nil, err
				}
				return b.Bootstrap(z, bt), nil
			},
		},
		{
			name:     "resnet-block",
			desc:     "ResNet-style block: BSGS conv, degree-3 activation, skip connection",
			levels:   6,
			logN:     5,
			evaluate: true,
			// y = act(W·x) + x: the FHE shape of one convolution + activation +
			// skip connection.
			body: func(b *fhir.Builder, x *fhir.Value, params *ckks.Parameters) (*fhir.Value, error) {
				lt, err := denseTransform(params.Slots(), math.Sin)
				if err != nil {
					return nil, err
				}
				act := b.Horner(b.LinTrans(x, lt, 4, "w"), []float64{0, 0.5, 0.25, -0.125})
				return b.Add(act, x), nil
			},
		},
	}

	rep := report{
		GitSHA:  provenance("BENCH_GIT_SHA", gitSHA),
		UTCTime: provenance("BENCH_UTC_TIME", func() string { return time.Now().UTC().Format(time.RFC3339) }),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
	}
	failed := false
	for _, bp := range programs {
		pr, err := benchOne(bp)
		if err != nil {
			log.Fatalf("hydra-compile: %s: %v", bp.name, err)
		}
		rep.Programs = append(rep.Programs, *pr)
		line := fmt.Sprintf("%-14s keyswitch %d -> %d (%.0f%% reduction), %d rotations merged, %d ModDowns saved",
			pr.Name, pr.Variants[0].KeySwitch, pr.Variants[1].KeySwitch,
			pr.KeySwitchReductionPct, pr.RotationsMerged, pr.ModDownsSaved)
		if pr.EvalOptimizedMs > 0 {
			line += fmt.Sprintf(", eval %.1fms -> %.1fms", pr.EvalNaiveMs, pr.EvalOptimizedMs)
		}
		fmt.Println(line)
		if *check && bp.checked && pr.KeySwitchReductionPct < *target {
			fmt.Fprintf(os.Stderr, "hydra-compile: %s: keyswitch reduction %.1f%% below the %.0f%% target\n",
				pr.Name, pr.KeySwitchReductionPct, *target)
			failed = true
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hydra-compile: wrote %d program reports to %s\n", len(rep.Programs), *out)
	if failed {
		os.Exit(1)
	}
}

func benchOne(bp benchProgram) (*programReport, error) {
	params := ckks.TestParameters(bp.logN, bp.levels)
	b := fhir.NewBuilder(params.Slots())
	out, err := bp.body(b, b.Input("x"), params)
	if err != nil {
		return nil, err
	}
	b.Output(out)
	src, err := b.Build()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name    string
		compile func(*fhir.Program) (*fhir.Program, error)
	}{
		{"naive", func(p *fhir.Program) (*fhir.Program, error) { return fhir.CompileNaive(p, bp.levels) }},
		{"full", func(p *fhir.Program) (*fhir.Program, error) { return fhir.Compile(p, fhir.Options{Levels: bp.levels}) }},
		{"no-cse", pipelineWithout(bp.levels, "cse")},
		{"no-lazy-relin", pipelineWithout(bp.levels, "lazy-relin")},
		{"no-hoist", pipelineWithout(bp.levels, "hoist")},
	}
	pr := &programReport{Name: bp.name, Description: bp.desc, Slots: params.Slots(), Levels: bp.levels}
	compiled := map[string]*fhir.Program{}
	for _, v := range variants {
		start := time.Now()
		p, err := v.compile(src)
		if err != nil {
			return nil, fmt.Errorf("variant %s: %w", v.name, err)
		}
		elapsed := time.Since(start)
		c := fhir.Measure(p)
		compiled[v.name] = p
		pr.Variants = append(pr.Variants, variantReport{
			Name: v.name, KeySwitch: c.KeySwitch, Decomp: c.Decomp, ModDown: c.ModDown,
			Rescale: c.Rescale, PMult: c.PMult, Values: c.Values,
			CompileMs: float64(elapsed.Microseconds()) / 1e3,
		})
	}
	naive, full := pr.Variants[0], pr.Variants[1]
	if naive.KeySwitch > 0 {
		pr.KeySwitchReductionPct = 100 * float64(naive.KeySwitch-full.KeySwitch) / float64(naive.KeySwitch)
	}
	for _, v := range pr.Variants {
		switch v.Name {
		case "no-hoist":
			pr.DecompsSaved = v.Decomp - full.Decomp
		case "no-cse":
			pr.ValuesCSERemoved = v.Values - full.Values
		}
	}
	pr.RotationsMerged = countMergedRotations(compiled["full"])
	pr.ModDownsSaved = naive.ModDown - full.ModDown

	if bp.evaluate {
		nms, oms, err := evaluatePair(params, compiled["naive"], compiled["full"])
		if err != nil {
			return nil, fmt.Errorf("end-to-end evaluation: %w", err)
		}
		pr.EvalNaiveMs, pr.EvalOptimizedMs = nms, oms
	}
	return pr, nil
}

// pipelineWithout is fhir.Compile's pass order (CSE → Legalize → LazyRelin →
// Hoist; every pass drops its own dead values) with the named pass left out.
func pipelineWithout(levels int, skip string) func(*fhir.Program) (*fhir.Program, error) {
	return func(p *fhir.Program) (*fhir.Program, error) {
		if skip != "cse" {
			p = fhir.CSE(p)
		}
		p, err := fhir.Legalize(p, fhir.LegalizeOptions{Levels: levels})
		if err != nil {
			return nil, err
		}
		if skip != "lazy-relin" {
			p = fhir.LazyRelin(p)
		}
		if skip != "hoist" {
			p = fhir.Hoist(p)
		}
		return p, nil
	}
}

// countMergedRotations counts the rotations of the optimized program that
// share a digit decomposition with at least one other rotation: the members
// of extended-basis baskets and rotation sums, and the standalone rotations
// the tier-A pass grouped (non-zero Hoist id).
func countMergedRotations(p *fhir.Program) int {
	n := 0
	for _, v := range p.Values {
		switch v.Op {
		case fhir.OpRotBasket, fhir.OpRotSum:
			for _, r := range v.Rots {
				if r != 0 {
					n++
				}
			}
		case fhir.OpRotate:
			if v.Hoist != 0 {
				n++
			}
		}
	}
	return n
}

// evaluatePair times one naive and one optimized execution on real
// ciphertexts under a deterministic key set, checking both against the exact
// interpreter so a timing win can never hide a wrong result.
func evaluatePair(params *ckks.Parameters, naive, opt *fhir.Program) (naiveMs, optMs float64, err error) {
	rotSet := map[int]bool{}
	conj := false
	for _, p := range []*fhir.Program{naive, opt} {
		rs, cj := p.Rotations()
		for _, r := range rs {
			rotSet[r] = true
		}
		conj = conj || cj
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptor(params, pk, 2)
	decryptor := ckks.NewDecryptor(params, sk)
	eval := ckks.NewEvaluator(params, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, rots, conj))

	plainIn := map[string][]complex128{}
	for _, in := range opt.Inputs() {
		vals := make([]complex128, opt.Slots)
		for i := range vals {
			vals[i] = complex(0.4*math.Cos(float64(3*i+1)), 0)
		}
		plainIn[in.Name] = vals
	}
	want, err := fhir.Interpret(opt, plainIn)
	if err != nil {
		return 0, 0, err
	}
	ctx := fhir.EvalContext{Eval: eval, Enc: enc}
	timeOne := func(p *fhir.Program) (float64, error) {
		inputs := map[string]*ckks.Ciphertext{}
		for name, vals := range plainIn {
			pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), params.MaxLevel())
			if err != nil {
				return 0, err
			}
			inputs[name] = encryptor.Encrypt(pt)
		}
		start := time.Now()
		out, err := fhir.Evaluate(p, ctx, inputs)
		if err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		got := enc.Decode(decryptor.Decrypt(out))
		maxErr := 0.0
		for i := range want {
			re, im := real(got[i]-want[i]), imag(got[i]-want[i])
			if e := math.Hypot(re, im); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 1e-2 {
			return 0, fmt.Errorf("max slot error %.3g against the interpreter", maxErr)
		}
		return float64(elapsed.Microseconds()) / 1e3, nil
	}
	if naiveMs, err = timeOne(naive); err != nil {
		return 0, 0, fmt.Errorf("naive: %w", err)
	}
	if optMs, err = timeOne(opt); err != nil {
		return 0, 0, fmt.Errorf("optimized: %w", err)
	}
	return naiveMs, optMs, nil
}

// denseTransform is a deterministic smooth dim×dim matrix with every diagonal
// non-zero, scaled so the product keeps O(1) slot magnitudes.
func denseTransform(dim int, wave func(float64) float64) (*hefloat.LinearTransform, error) {
	m := make([][]complex128, dim)
	for r := range m {
		m[r] = make([]complex128, dim)
		for c := range m[r] {
			m[r][c] = complex(wave(float64(3*r+c))/float64(dim), 0)
		}
	}
	return hefloat.NewLinearTransform(m)
}

// provenance prefers the environment value bench.sh exports so every
// BENCH_*.json of one run agrees, falling back to computing it here.
func provenance(env string, fallback func() string) string {
	if v := os.Getenv(env); v != "" {
		return v
	}
	return fallback()
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
