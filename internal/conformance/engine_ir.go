package conformance

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/fhir"
	"hydra/internal/hefloat"
	"hydra/internal/hw"
	"hydra/internal/isa"
	"hydra/internal/serve"
	"hydra/internal/sim"
)

// The ir, sim and cluster columns all execute one compiled program: the spec
// is translated once by buildIRProgram (mathematical structure only, no
// scales or schedules) and optimized once by fhir.Compile (CSE, lazy rescale
// placement, lazy relinearization, rotation hoisting). Each column is then one
// of the compiler's own lowerings, scored on its own:
//
//	ir       fhir.Evaluate on the functional evaluator (hoisted baskets,
//	         extended-basis MACs, deferred relinearizations);
//	sim      fhir.BuildTaskProgram on the paper-scale accelerator model —
//	         validate, byte-stable ISA round trip, schedule on the Hydra fleet;
//	cluster  fhir.LowerCluster as a 2-card job through internal/serve onto the
//	         goroutine-card runtime.
//
// A budget pass certifies that the compiler's optimizations and that lowering
// preserved the program's semantics; none of the three is an independent
// re-implementation of the corpus (the hefloat engines and Interpret are).

const (
	// clusterCards is the grant size every program is lowered for: two cards
	// make every multi-term program cross the switch while keeping the matrix
	// fast.
	clusterCards = 2
	// simCards is the machine shape the sim column schedules onto: four
	// cards, two per server, the smallest multi-server Hydra fleet.
	simCards = 4
)

// compiled is a spec's one trip through the frontend and the pass pipeline;
// err is what all three IR-driven cells report when that trip failed.
type compiled struct {
	prog *fhir.Program
	err  error
}

func compileSpec(s *ProgramSpec) *compiled {
	prog, err := buildIRProgram(s)
	if err != nil {
		return &compiled{err: fmt.Errorf("ir frontend: %w", err)}
	}
	opt, err := fhir.Compile(prog, fhir.Options{Levels: s.Params.Levels})
	if err != nil {
		return &compiled{err: fmt.Errorf("ir compile: %w", err)}
	}
	return &compiled{prog: opt}
}

// irInputs binds the program's encrypted inputs for the IR-driven columns.
// The IR has no ModRaise: a bootstrap program's level-0 inputs are raised to
// the top modulus here, once, on the host — after which the rest of the
// bootstrap pipeline is ordinary IR arithmetic on m + q0·I.
func irInputs(env *Env, s *ProgramSpec) (map[string]*ckks.Ciphertext, error) {
	inputs, err := encryptInputs(env, s)
	if err != nil {
		return nil, err
	}
	if s.usesBootstrap() {
		for name, ct := range inputs {
			inputs[name] = env.Eval.RaiseModulus(ct)
		}
	}
	return inputs, nil
}

// runIR executes the compiled program through the ckks evaluator lowering.
func runIR(env *Env, c *compiled, s *ProgramSpec) (*ckks.Ciphertext, error) {
	if c.err != nil {
		return nil, c.err
	}
	inputs, err := irInputs(env, s)
	if err != nil {
		return nil, err
	}
	return fhir.Evaluate(c.prog, fhir.EvalContext{Eval: env.Eval, Enc: env.Encoder}, inputs)
}

// runSim lowers the compiled program onto the accelerator model. The numeric
// check of the other columns becomes a legality check here — the modeled
// machine executes op counts, not residues: the task program must validate,
// survive an ISA encode→decode→re-encode round trip byte-stably, and schedule
// on the Hydra fleet config with a finite (and, for a non-empty program,
// non-zero) makespan. The returned line is the cell's detail.
func runSim(c *compiled, s *ProgramSpec) (string, error) {
	if c.err != nil {
		return "", c.err
	}
	tp, err := fhir.BuildTaskProgram(c.prog, hw.PaperScheme(), simCards, 2, s.Name)
	if err != nil {
		return "", fmt.Errorf("task lowering: %w", err)
	}
	bin, err := isa.Marshal(tp)
	if err != nil {
		return "", fmt.Errorf("isa marshal: %w", err)
	}
	decoded, err := isa.Unmarshal(bin)
	if err != nil {
		return "", fmt.Errorf("isa unmarshal: %w", err)
	}
	if err := decoded.Validate(); err != nil {
		return "", fmt.Errorf("decoded program invalid: %w", err)
	}
	bin2, err := isa.Marshal(decoded)
	if err != nil {
		return "", fmt.Errorf("isa re-marshal: %w", err)
	}
	if !bytes.Equal(bin, bin2) {
		return "", fmt.Errorf("isa round trip not byte-stable (%d vs %d bytes)", len(bin), len(bin2))
	}
	res, err := sim.Run(decoded, sim.HydraConfig())
	if err != nil {
		return "", fmt.Errorf("sim run: %w", err)
	}
	if math.IsNaN(res.Makespan) || math.IsInf(res.Makespan, 0) || res.Makespan < 0 {
		return "", fmt.Errorf("sim makespan %v not finite", res.Makespan)
	}
	if len(s.Ops) > 0 && res.Makespan <= 0 {
		return "", fmt.Errorf("non-empty program scheduled with zero makespan")
	}
	tasks := 0
	for _, st := range decoded.Steps {
		for _, cc := range st.Compute {
			tasks += len(cc)
		}
	}
	return fmt.Sprintf("%d steps, %d tasks, %dB ISA, makespan %.3gs",
		len(decoded.Steps), tasks, len(bin), res.Makespan), nil
}

// runCluster executes the compiled program on the functional multi-card
// runtime via the serving layer: the per-card streams are submitted as a
// 2-card job against the environment's fleet server, whose ClusterBackend
// builds a fresh goroutine-card cluster on the granted placement. Inputs are
// preloaded on every granted card; the result is read from "out" on card 0.
func runCluster(env *Env, srv *serve.Server, c *compiled, s *ProgramSpec) (*ckks.Ciphertext, error) {
	if c.err != nil {
		return nil, c.err
	}
	progs, err := fhir.LowerCluster(c.prog, env.Encoder, clusterCards)
	if err != nil {
		return nil, err
	}
	inputs, err := irInputs(env, s)
	if err != nil {
		return nil, err
	}
	var out *ckks.Ciphertext
	job := &serve.Job{
		ID:    "conformance/" + s.Name,
		Cards: clusterCards,
		BuildCluster: func(cards int) (*serve.ClusterJob, error) {
			if cards != clusterCards {
				return nil, fmt.Errorf("conformance: lowered for %d cards, granted %d", clusterCards, cards)
			}
			return &serve.ClusterJob{
				Programs: progs,
				Preload: func(cl *cluster.Cluster) error {
					for card := 0; card < cards; card++ {
						for name, ct := range inputs {
							cl.Load(card, name, ct)
						}
					}
					return nil
				},
				Collect: func(cl *cluster.Cluster) (err error) {
					out, err = cl.Get(0, "out")
					return err
				},
			}, nil
		},
	}
	ticket, err := srv.Submit(job)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, err := ticket.Wait(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// buildIRProgram translates a conformance spec into an fhir program. The
// translation writes only mathematics — per-rotation sums, per-diagonal
// products, Horner chains — and leaves every optimization (rotation merging,
// rescale placement, relin deferral) to the pass pipeline, so the matrix
// exercises the compiler rather than a hand-optimized frontend.
func buildIRProgram(s *ProgramSpec) (*fhir.Program, error) {
	slots := s.Slots()
	b := fhir.NewBuilder(slots)
	regs := map[string]*fhir.Value{}
	for _, in := range s.Inputs {
		regs[in.Name] = b.Input(in.Name)
	}
	var bt *hefloat.Bootstrapper // built on the first bootstrap op
	get := func(name string) (*fhir.Value, error) {
		v, ok := regs[name]
		if !ok {
			return nil, fmt.Errorf("register %q undefined", name)
		}
		return v, nil
	}
	for i, op := range s.Ops {
		a, err := get(op.A)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
		var out *fhir.Value
		switch op.Op {
		case "add", "sub", "mul", "ccmm":
			bb, err := get(op.B)
			if err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
			}
			switch op.Op {
			case "add":
				out = b.Add(a, bb)
			case "sub":
				out = b.Sub(a, bb)
			case "mul":
				out = b.Mul(a, bb)
			case "ccmm":
				out, err = irCCMM(b, slots, a, bb)
				if err != nil {
					return nil, fmt.Errorf("op %d (ccmm): %w", i, err)
				}
			}
		case "neg":
			out = b.Neg(a)
		case "conjugate":
			out = b.Conjugate(a)
		case "rotate":
			out = b.Rotate(a, op.K)
		case "addconst":
			out = b.AddConst(a, op.Const)
		case "mulconst":
			out = b.MulConst(a, op.Const)
		case "mulplain":
			vals, err := GenVector(op.Gen, slots)
			if err != nil {
				return nil, err
			}
			out = b.MulPlain(a, b.PlainVec("gen:"+op.Gen, vals))
		case "rotsum", "rotsumext":
			if op.K < 1 {
				return nil, fmt.Errorf("op %d: rotsum width %d", i, op.K)
			}
			out = a
			for r := 1; r < op.K; r++ {
				out = b.Add(out, b.Rotate(a, r))
			}
		case "lintrans":
			m, err := GenMatrix(op.Matrix, slots)
			if err != nil {
				return nil, err
			}
			lt, err := hefloat.NewLinearTransform(m)
			if err != nil {
				return nil, err
			}
			out = irLinTrans(b, a, lt, op.BS, fmt.Sprintf("lt%d:%s", i, op.Matrix))
		case "pcmm":
			w, err := GenWeights(op.Matrix, isqrt(slots))
			if err != nil {
				return nil, err
			}
			lt, err := hefloat.NewPCMMTransform(w, slots)
			if err != nil {
				return nil, err
			}
			out = irLinTrans(b, a, lt, 0, fmt.Sprintf("pcmm%d:%s", i, op.Matrix))
		case "poly":
			if len(op.Coeffs) < 2 {
				return nil, fmt.Errorf("op %d: poly needs degree >= 1", i)
			}
			out = irHorner(b, a, op.Coeffs)
		case "bootstrap":
			// ModRaise is host-side (irInputs), so only a program input can
			// be bootstrapped.
			if a.Op != fhir.OpInput {
				return nil, fmt.Errorf("op %d: bootstrap of a computed value has no IR form", i)
			}
			if bt == nil {
				if bt, err = bootTransforms(s); err != nil {
					return nil, fmt.Errorf("op %d (bootstrap): %w", i, err)
				}
			}
			out = irBootstrap(b, a, bt)
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
		regs[op.Dst] = out
	}
	outVal, err := get(s.Output)
	if err != nil {
		return nil, err
	}
	b.Output(outVal)
	return b.Build()
}

// irHorner writes p(x) = Σ coeffs[t]·x^t (degree >= 1) as a Horner chain.
func irHorner(b *fhir.Builder, x *fhir.Value, coeffs []float64) *fhir.Value {
	deg := len(coeffs) - 1
	out := b.AddConst(b.MulConst(x, coeffs[deg]), coeffs[deg-1])
	for t := deg - 2; t >= 0; t-- {
		out = b.AddConst(b.Mul(out, x), coeffs[t])
	}
	return out
}

// bootTransforms builds the bootstrapper whose DFT matrices and sine schedule
// the frontend writes into the IR. Only the transforms are read, so it needs
// no evaluator and no keys — which is what lets a bootstrap program compile
// before its environment's rotation keys (sized from the compiled program)
// exist. The matrices depend on the parameter set alone, so they equal the
// ones the hefloat engines' own bootstrappers hold.
func bootTransforms(s *ProgramSpec) (*hefloat.Bootstrapper, error) {
	params, err := newParameters(keyOf(s))
	if err != nil {
		return nil, err
	}
	// The reference flavour skips plan precompilation; the transforms are the same.
	return hefloat.NewBootstrapper(params, ckks.NewEncoder(params), nil, bootOptions(true))
}

// irBootstrap writes the bootstrap pipeline after ModRaise, for a raised
// input z decrypting to m + q0·I: CoeffToSlot (u0 = P·z + Q·z̄, u1 = R·z +
// S·z̄, the Δ/q0 factor folded into the matrices), sin(2πu) per branch — the
// θ-scaled small-angle Taylor pair by Horner, then the double-angle
// iterations — and SlotToCoeff (A·w0 + B·w1, q0/(2πΔ) folded in). Same
// matrices, baby-step count and sine schedule as hefloat's Bootstrap; where
// rescales, relinearizations and the shared rotations go is the compiler's
// business.
func irBootstrap(b *fhir.Builder, z *fhir.Value, bt *hefloat.Bootstrapper) *fhir.Value {
	ltP, ltQ, ltR, ltS := bt.CoeffToSlotTransforms()
	ltA, ltB := bt.SlotToCoeffTransforms()
	bs := bt.BabySteps()
	zc := b.Conjugate(z)
	u0 := b.Add(irLinTrans(b, z, ltP, bs, "boot:P"), irLinTrans(b, zc, ltQ, bs, "boot:Q"))
	u1 := b.Add(irLinTrans(b, z, ltR, bs, "boot:R"), irLinTrans(b, zc, ltS, bs, "boot:S"))

	deg, iters := bt.SineSchedule()
	theta := 2 * math.Pi / math.Pow(2, float64(iters))
	sinC := make([]float64, deg+1) // odd series up to y^deg
	cosC := make([]float64, deg+2) // even series up to y^(deg+1)
	term := 1.0
	for i := 0; i <= deg+1; i++ {
		if i > 0 {
			term /= float64(i)
		}
		c := term
		if i%4 >= 2 {
			c = -c
		}
		if i%2 == 0 {
			cosC[i] = c
		} else if i <= deg {
			sinC[i] = c
		}
	}
	sine := func(u *fhir.Value) *fhir.Value {
		y := b.MulConst(u, theta)
		sn, cs := irHorner(b, y, sinC), irHorner(b, y, cosC)
		for i := 0; i < iters; i++ {
			sc, ss := b.Mul(sn, cs), b.Mul(sn, sn)
			sn = b.Add(sc, sc)                       // sin 2x = 2 sin x cos x
			cs = b.AddConst(b.Neg(b.Add(ss, ss)), 1) // cos 2x = 1 - 2 sin²x
		}
		return sn
	}
	return b.Add(irLinTrans(b, sine(u0), ltA, bs, "boot:A"), irLinTrans(b, sine(u1), ltB, bs, "boot:B"))
}

// irLinTrans writes a diagonal-decomposed linear transform as the BSGS
// regrouping Σ_g rot(Σ_j shifted_diag ⊙ rot(x, j), g), in plain per-rotation
// products whose sharing the hoisting pass discovers. bs <= 0 is the naive sum
// Σ_d diag_d ⊙ rot(x, d): one group, no giant step.
func irLinTrans(b *fhir.Builder, x *fhir.Value, lt *hefloat.LinearTransform, bs int, key string) *fhir.Value {
	if bs <= 0 {
		bs = lt.Dim
	}
	ds := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	var acc, inner *fhir.Value
	for i, d := range ds {
		g := d - d%bs
		pt := b.PlainVec(fmt.Sprintf("%s:g%d:d%d", key, g, d), lt.ShiftedDiag(d, g))
		inner = irAdd(b, inner, b.MulPlain(b.Rotate(x, d-g), pt))
		if i+1 == len(ds) || ds[i+1]-ds[i+1]%bs != g { // last diagonal of its group
			acc = irAdd(b, acc, b.Rotate(inner, g))
			inner = nil
		}
	}
	return acc
}

// irAdd extends a running sum that starts out nil.
func irAdd(b *fhir.Builder, acc, term *fhir.Value) *fhir.Value {
	if acc == nil {
		return term
	}
	return b.Add(acc, term)
}

// irCCMM writes the ciphertext-ciphertext matrix product over column-packed
// k×k operands: naive σ/τ pre-transforms, then the k combine iterations with
// the ψ_d main/wraparound masks — the same iteration structure as
// hefloat.CCMM, with every product left to the lazy-relinearization pass.
func irCCMM(b *fhir.Builder, slots int, x, z *fhir.Value) (*fhir.Value, error) {
	k := isqrt(slots)
	if k*k != slots {
		return nil, fmt.Errorf("ccmm needs a square slot count, got %d", slots)
	}
	sigma, err := hefloat.NewLinearTransform(hefloat.CCMMSigma(k))
	if err != nil {
		return nil, err
	}
	tau, err := hefloat.NewLinearTransform(hefloat.CCMMTau(k))
	if err != nil {
		return nil, err
	}
	a := irLinTrans(b, x, sigma, 0, "ccmm:sigma")
	bb := irLinTrans(b, z, tau, 0, "ccmm:tau")
	var acc *fhir.Value
	for d := 0; d < k; d++ {
		ad := b.Rotate(a, d*k)
		maskMain, maskWrap := hefloat.CCMMMasks(k, d)
		var bd *fhir.Value
		if d == 0 {
			bd = b.MulPlain(bb, b.PlainVec("ccmm:mask0", maskMain))
		} else {
			main := b.MulPlain(b.Rotate(bb, d), b.PlainVec(fmt.Sprintf("ccmm:m%d", d), maskMain))
			wrap := b.MulPlain(b.Rotate(bb, d-k), b.PlainVec(fmt.Sprintf("ccmm:w%d", d), maskWrap))
			bd = b.Add(main, wrap)
		}
		acc = irAdd(b, acc, b.Mul(ad, bd))
	}
	return acc, nil
}
