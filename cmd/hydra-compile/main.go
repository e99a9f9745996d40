// hydra-compile prints the IR compiler's per-pass ablation: it builds the
// paper's two keyswitch-heavy programs (a BSGS linear transform and the whole
// bootstrap pipeline after ModRaise) plus a ResNet-style block with
// internal/fhir's frontends, compiles each naively, with the full pass
// pipeline and with each optimization pass left out in turn, and prints the
// static cost model (keyswitches, decompositions, ModDowns, rescales, plaintext
// multiplies, IR values) and the wall-clock compile time of every variant.
//
// The counts are exact for a commit. The keyswitch-reduction bar (the full
// pipeline removes at least 20% of the naive keyswitches) is gated by
// internal/fhir's tests; the published trajectory of these counts is bench/'s
// fhir.* per-layer metrics.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/fhir"
	"hydra/internal/hefloat"
)

// benchProgram is one benchmark shape: the body of a one-input program plus
// the parameter set (ckks.TestParameters(logN, levels)) it compiles under.
type benchProgram struct {
	name, desc string
	levels     int
	logN       int
	body       func(b *fhir.Builder, x *fhir.Value, params *ckks.Parameters) (*fhir.Value, error)
}

func main() {
	programs := []benchProgram{
		{
			name:   "bsgs-dense",
			desc:   "dense 16x16 BSGS linear transform (bs=gs=4), every diagonal non-zero",
			levels: 3,
			logN:   5,
			body: func(b *fhir.Builder, x *fhir.Value, params *ckks.Parameters) (*fhir.Value, error) {
				lt, err := denseTransform(params.Slots(), math.Cos)
				if err != nil {
					return nil, err
				}
				return b.LinTrans(x, lt, 4, "m"), nil
			},
		},
		{
			name:   "bootstrap",
			desc:   "bootstrap after ModRaise at N=512: CoeffToSlot, double-angle sine, SlotToCoeff (conformance's bootstrap-small)",
			levels: 20,
			logN:   9,
			body: func(b *fhir.Builder, z *fhir.Value, params *ckks.Parameters) (*fhir.Value, error) {
				d, err := hefloat.NewBootstrapDesc(params, hefloat.BootstrapperOptions{K: 16})
				if err != nil {
					return nil, err
				}
				return b.Bootstrap(z, d), nil
			},
		},
		{
			name:   "resnet-block",
			desc:   "ResNet-style block: BSGS conv, degree-3 activation, skip connection",
			levels: 6,
			logN:   5,
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
	for _, bp := range programs {
		if err := report(bp); err != nil {
			log.Fatalf("hydra-compile: %s: %v", bp.name, err)
		}
	}
}

// report compiles one program under every pass configuration and prints one
// cost-model row per variant, then what each pass bought.
func report(bp benchProgram) error {
	params := ckks.TestParameters(bp.logN, bp.levels)
	b := fhir.NewBuilder(params.Slots())
	out, err := bp.body(b, b.Input("x"), params)
	if err != nil {
		return err
	}
	b.Output(out)
	src, err := b.Build()
	if err != nil {
		return err
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
	fmt.Printf("%s: %s (%d slots, %d levels)\n", bp.name, bp.desc, params.Slots(), bp.levels)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "variant\tkeyswitch\tdecomp\tmoddown\trescale\tpmult\tvalues\tcompile_ms\t")
	costs := map[string]fhir.Cost{}
	var full *fhir.Program
	for _, v := range variants {
		start := time.Now()
		p, err := v.compile(src)
		if err != nil {
			return fmt.Errorf("variant %s: %w", v.name, err)
		}
		elapsed := time.Since(start)
		c := fhir.Measure(p)
		costs[v.name] = c
		if v.name == "full" {
			full = p
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t\n", v.name,
			c.KeySwitch, c.Decomp, c.ModDown, c.Rescale, c.PMult, c.Values, float64(elapsed.Microseconds())/1e3)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	naive, opt := costs["naive"], costs["full"]
	fmt.Printf("  keyswitch %d -> %d (%.0f%% reduction), %d rotations merged, %d decompositions saved by hoisting, %d ModDowns saved, %d values removed by CSE\n\n",
		naive.KeySwitch, opt.KeySwitch, 100*float64(naive.KeySwitch-opt.KeySwitch)/float64(naive.KeySwitch),
		countMergedRotations(full), costs["no-hoist"].Decomp-opt.Decomp,
		naive.ModDown-opt.ModDown, costs["no-cse"].Values-opt.Values)
	return nil
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
