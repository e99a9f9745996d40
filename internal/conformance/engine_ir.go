package conformance

import (
	"bytes"
	"context"
	"fmt"
	"math"
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

// buildIRProgram translates a conformance spec into an fhir program, op by
// op: the primitive ops are Builder calls, the procedures (lintrans, pcmm,
// ccmm, poly, bootstrap) are fhir's own frontends. Both write mathematics only
// and leave every optimization (rotation merging, rescale placement, relin
// deferral) to the pass pipeline, so the matrix exercises the compiler rather
// than a hand-optimized program.
func buildIRProgram(s *ProgramSpec) (*fhir.Program, error) {
	slots := s.Slots()
	b := fhir.NewBuilder(slots)
	regs := map[string]*fhir.Value{}
	for _, in := range s.Inputs {
		regs[in.Name] = b.Input(in.Name)
	}
	var boot *hefloat.BootstrapDesc // built on the first bootstrap op
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
				out = b.CCMM(a, bb)
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
			out = b.LinTrans(a, lt, op.BS, fmt.Sprintf("lt%d:%s", i, op.Matrix))
		case "pcmm":
			w, err := GenWeights(op.Matrix, isqrt(slots))
			if err != nil {
				return nil, err
			}
			lt, err := hefloat.NewPCMMTransform(w, slots)
			if err != nil {
				return nil, err
			}
			out = b.LinTrans(a, lt, 0, fmt.Sprintf("pcmm%d:%s", i, op.Matrix))
		case "poly":
			out = b.Horner(a, op.Coeffs)
		case "bootstrap":
			// ModRaise is host-side (irInputs), so only a program input can
			// be bootstrapped.
			if a.Op != fhir.OpInput {
				return nil, fmt.Errorf("op %d: bootstrap of a computed value has no IR form", i)
			}
			if boot == nil {
				if boot, err = bootDesc(s); err != nil {
					return nil, fmt.Errorf("op %d (bootstrap): %w", i, err)
				}
			}
			out = b.Bootstrap(a, boot)
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

// bootDesc builds the bootstrap description the frontend writes into the IR.
// It needs no evaluator and no keys — which is what lets a bootstrap program
// compile before its environment's rotation keys (sized from the compiled
// program) exist — and depends on the parameter set alone, so it equals the one
// the hefloat engines' bootstrapper executes.
func bootDesc(s *ProgramSpec) (*hefloat.BootstrapDesc, error) {
	params, err := newParameters(keyOf(s))
	if err != nil {
		return nil, err
	}
	return hefloat.NewBootstrapDesc(params, bootOptions)
}
