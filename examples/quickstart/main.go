// Quickstart: the two halves of this repository in one program.
//
// Part 1 writes a small ciphertext program on the internal/fhir SSA IR —
// the compiler front door — runs the optimizing pass pipeline (CSE, lazy
// rescale placement, lazy relinearization, rotation hoisting), and executes
// both the naive and the optimized form on the functional CKKS layer,
// showing the keyswitch work the compiler removed.
//
// Part 2 builds the scale-out schedule for a small convolution layer with
// the paper's ring-broadcast mapping (Figs. 1-2) and runs it on the
// simulated 8-card Hydra-M prototype, showing how transmission hides behind
// computation.
package main

import (
	"fmt"
	"log"
	"sort"

	"hydra/internal/ckks"
	"hydra/internal/fhir"
	"hydra/internal/mapping"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func main() {
	fmt.Println("== Part 1: a ciphertext program on the IR (the compiler layer) ==")
	const levels = 4
	params := ckks.TestParameters(12, levels) // N = 4096, 4 multiplicative levels

	// The program: smooth = Σ_{r<3} rot(x·y + x/2, r). The builder records
	// only the mathematics; rescale placement, relinearization and rotation
	// sharing are the pass pipeline's job.
	b := fhir.NewBuilder(params.Slots())
	x, y := b.Input("x"), b.Input("y")
	t := b.Add(b.Mul(x, y), b.MulConst(x, 0.5))
	smooth := b.Sum(t, b.Rotate(t, 1), b.Rotate(t, 2))
	b.Output(smooth)
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	naive, err := fhir.CompileNaive(prog, levels)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := fhir.Compile(prog, fhir.Options{Levels: levels})
	if err != nil {
		log.Fatal(err)
	}
	nc, oc := fhir.Measure(naive), fhir.Measure(opt)
	fmt.Printf("  naive:     %d keyswitches, %d decompositions, %d rescales\n",
		nc.KeySwitch, nc.Decomp, nc.Rescale)
	fmt.Printf("  optimized: %d keyswitches, %d decompositions, %d rescales\n",
		oc.KeySwitch, oc.Decomp, oc.Rescale)

	// Key material: the union of rotations either compiled form needs.
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
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rots, conj)

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptor(params, pk, 2)
	decryptor := ckks.NewDecryptor(params, sk)
	eval := ckks.NewEvaluator(params, rlk, rtks)

	xs := make([]complex128, params.Slots())
	ys := make([]complex128, params.Slots())
	for i := range xs {
		xs[i] = complex(float64(i%10)/10, 0)
		ys[i] = complex(float64(i%7)/7, 0)
	}
	want, err := fhir.Interpret(prog, map[string][]complex128{"x": xs, "y": ys})
	if err != nil {
		log.Fatal(err)
	}
	ctx := fhir.EvalContext{Eval: eval, Enc: enc}
	for _, run := range []struct {
		name string
		p    *fhir.Program
	}{{"naive", naive}, {"optimized", opt}} {
		inputs := map[string]*ckks.Ciphertext{}
		for n, vals := range map[string][]complex128{"x": xs, "y": ys} {
			pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), levels)
			if err != nil {
				log.Fatal(err)
			}
			inputs[n] = encryptor.Encrypt(pt)
		}
		out, err := fhir.Evaluate(run.p, ctx, inputs)
		if err != nil {
			log.Fatal(err)
		}
		got := enc.Decode(decryptor.Decrypt(out))
		fmt.Printf("  %-10s slot0 got %+.4f want %+.4f | slot5 got %+.4f want %+.4f\n",
			run.name, real(got[0]), real(want[0]), real(got[5]), real(want[5]))
	}

	fmt.Println("\n== Part 2: scale-out schedule of a ConvBN layer on Hydra-M ==")
	cfg := sim.HydraConfig()
	const cards, units, outputCts = 8, 256, 8

	// The ring-broadcast mapping of Figs. 1-2 on n cards.
	run := func(n int) *sim.Result {
		b := task.NewBuilder(n, n)
		ctx := mapping.NewContext(b, cfg.Scheme, n)
		if err := ctx.DistributeBroadcast(units, mapping.ConvBNUnit, outputCts, "ConvBN"); err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(b.Build(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	single, ring := run(1), run(cards)
	fmt.Printf("  ring broadcast (paper) makespan %7.2f ms, exposed comm %6.2f ms (%4.1f%%)\n",
		ring.Makespan*1e3, ring.ExposedComm()*1e3, 100*ring.CommShare())
	fmt.Printf("  8-card speedup with the paper's mapping: %.2fx\n", single.Makespan/ring.Makespan)
}
