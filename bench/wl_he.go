package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/fhir"
)

// heProgram is he-rot and he-mul: encode + encrypt, fhir.Evaluate of one
// compiled program, decrypt + decode, checked against fhir.Interpret.
type heProgram struct {
	logN, levels int
	nWarm        int     // warm-up ops
	amp          float64 // input parts are uniform in [-amp, amp]
	realOnly     bool
	tol          float64
	build        func(slots int, rng *rand.Rand) (*fhir.Program, error)
	// bsgsLive is the BSGS split of the cluster / serve-live section, 0 for
	// workloads without one.
	bsgsLive int

	env  *ckksEnv
	prog *fhir.Program
	cost fhir.Cost
}

// ckksEnv is one key set and the objects built on it.
type ckksEnv struct {
	params *ckks.Parameters
	kg     *ckks.KeyGenerator
	sk     *ckks.SecretKey
	rlk    *ckks.RelinearizationKey
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	eval   *ckks.Evaluator
}

func newCkksEnv(params *ckks.Parameters, seed int64, sparse int, rots []int, conj bool) *ckksEnv {
	e := &ckksEnv{params: params, kg: ckks.NewKeyGenerator(params, seed)}
	if sparse > 0 {
		e.sk = e.kg.GenSecretKeySparse(sparse)
	} else {
		e.sk = e.kg.GenSecretKey()
	}
	pk := e.kg.GenPublicKey(e.sk)
	e.rlk = e.kg.GenRelinearizationKey(e.sk)
	e.enc = ckks.NewEncoder(params)
	e.encr = ckks.NewEncryptor(params, pk, seed+1)
	e.decr = ckks.NewDecryptor(params, e.sk)
	e.eval = ckks.NewEvaluator(params, e.rlk, e.kg.GenRotationKeys(e.sk, rots, conj))
	return e
}

func newHeRot(smoke bool) workload {
	w := &heProgram{logN: 12, levels: 4, nWarm: 2, amp: 1, realOnly: true, tol: 1e-6, bsgsLive: 8}
	bs := 16
	if smoke {
		w.logN, bs, w.bsgsLive = 8, 4, 2
	}
	w.build = func(slots int, rng *rand.Rand) (*fhir.Program, error) { return buildBSGS(slots, bs, bs, rng) }
	return w
}

func newHeMul(smoke bool) workload {
	w := &heProgram{logN: 12, levels: 16, nWarm: 3, amp: 0.7, tol: 1e-6}
	if smoke {
		w.logN = 8
	}
	w.build = func(slots int, rng *rand.Rand) (*fhir.Program, error) { return buildHorner(slots, 15, rng) }
	return w
}

// buildBSGS writes a dense matrix-vector product over bs*gs diagonals as the
// frontend would: y = sum_g rot(sum_j diag'[g*bs+j] * rot(x, j), g*bs), each
// diagonal pre-rotated by its giant step. The compiler hoists the baby
// rotations onto one decomposition and folds each giant step in the
// extended basis.
func buildBSGS(slots, bs, gs int, rng *rand.Rand) (*fhir.Program, error) {
	b := fhir.NewBuilder(slots)
	x := b.Input("x")
	norm := 1 / float64(bs*gs)
	var acc *fhir.Value
	for g := 0; g < gs; g++ {
		var inner *fhir.Value
		for j := 0; j < bs; j++ {
			vals := make([]complex128, slots)
			for t := range vals {
				vals[t] = complex((2*rng.Float64()-1)*norm, 0)
			}
			term := b.MulPlain(b.Rotate(x, j), b.PlainVec(fmt.Sprintf("d%d", g*bs+j), vals))
			if inner == nil {
				inner = term
			} else {
				inner = b.Add(inner, term)
			}
		}
		rotated := b.Rotate(inner, g*bs)
		if acc == nil {
			acc = rotated
		} else {
			acc = b.Add(acc, rotated)
		}
	}
	b.Output(acc)
	return b.Build()
}

// buildHorner writes a degree-deg polynomial by Horner's rule: one constant
// multiply, then deg-1 ciphertext multiplies, each relinearized and rescaled.
func buildHorner(slots, deg int, rng *rand.Rand) (*fhir.Program, error) {
	b := fhir.NewBuilder(slots)
	x := b.Input("x")
	c := func() float64 { return rng.Float64() - 0.5 }
	acc := b.AddConst(b.MulConst(x, c()), c())
	for i := deg - 2; i >= 0; i-- {
		acc = b.AddConst(b.Mul(acc, x), c())
	}
	b.Output(acc)
	return b.Build()
}

func (w *heProgram) setup(b *bench) error {
	params := ckks.TestParameters(w.logN, w.levels)
	src, err := w.build(params.Slots(), b.rng)
	if err != nil {
		return err
	}
	t0 := time.Now()
	w.prog, err = fhir.Compile(src, fhir.Options{Levels: w.levels})
	if err != nil {
		return err
	}
	b.m["fhir.compile_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	w.cost = fhir.Measure(w.prog)
	rots, conj := w.prog.Rotations()
	w.env = newCkksEnv(params, b.cfg.seed, 0, rots, conj)
	return nil
}

func (w *heProgram) warmups() int               { return w.nWarm }
func (w *heProgram) sensitivity() float64       { return 0.7 }
func (w *heProgram) warm(b *bench, _ int) error { return w.op(b) }

func drawSlots(rng *rand.Rand, n int, amp float64, realOnly bool) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		re, im := amp*(2*rng.Float64()-1), 0.0
		if !realOnly {
			im = amp * (2*rng.Float64() - 1)
		}
		v[i] = complex(re, im)
	}
	return v
}

func maxSlotErr(got, want []complex128) float64 {
	worst := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}

func (w *heProgram) op(b *bench) error {
	e := w.env
	vals := drawSlots(b.rng, e.params.Slots(), w.amp, w.realOnly)
	var got []complex128
	var out *ckks.Ciphertext
	var err error
	b.segment("bench.op", func() {
		var pt *ckks.Plaintext
		b.span("ckks.encode", func() {
			pt, err = e.enc.EncodeAtLevel(vals, e.params.DefaultScale(), w.levels)
		})
		if err != nil {
			return
		}
		var ct *ckks.Ciphertext
		b.span("ckks.encrypt", func() { ct = e.encr.Encrypt(pt) })
		b.span("fhir.evaluate", func() {
			out, err = fhir.Evaluate(w.prog, fhir.EvalContext{Eval: e.eval, Enc: e.enc}, map[string]*ckks.Ciphertext{"x": ct})
		})
		if err != nil {
			return
		}
		b.span("ckks.decrypt_decode", func() { got = e.enc.Decode(e.decr.Decrypt(out)) })
	})
	if err != nil {
		return err
	}
	if b.spoiled() {
		got[0] += 1
	}
	want, err := fhir.Interpret(w.prog, map[string][]complex128{"x": vals})
	if err != nil {
		return err
	}
	if worst := maxSlotErr(got, want); !(worst <= w.tol) {
		return fmt.Errorf("max slot error %.3g against fhir.Interpret exceeds %.0e", worst, w.tol)
	}
	if out.Level() != w.prog.Output.Level {
		return fmt.Errorf("output at level %d, compiled for level %d", out.Level(), w.prog.Output.Level)
	}
	return nil
}

func (w *heProgram) layers(b *bench) error {
	e := w.env
	u := ckksUnits(b, e, w.levels)
	b.m["fhir.values"] = float64(w.cost.Values)
	b.m["fhir.keyswitch"] = float64(w.cost.KeySwitch)
	b.m["fhir.decomp"] = float64(w.cost.Decomp)
	b.m["fhir.moddown"] = float64(w.cost.ModDown)
	b.m["fhir.rescale"] = float64(w.cost.Rescale)
	b.m["fhir.pmult"] = float64(w.cost.PMult)

	// The cost model against the measurement: Measure's counts priced with
	// the unit costs above. A keyswitch inside a shared decomposition costs a
	// hoisted rotation, a decomposition the rest of a lone rotation, and a
	// plaintext multiply pays the encode Evaluate does for it on every call.
	eval := median(b.tr.referenced("fhir.evaluate"))
	encode := float64(w.cost.PMult) * u.encode
	model := float64(w.cost.KeySwitch)*u.hoistedPerRot +
		float64(w.cost.Decomp)*math.Max(u.rotate-u.hoistedPerRot, 0) +
		float64(w.cost.Rescale)*u.rescale +
		float64(w.cost.PMult)*u.mulplain + encode
	b.m["fhir.evaluate_ms_p50"] = eval
	b.m["fhir.model_ms"] = model
	if eval > 0 {
		b.m["fhir.model_ratio"] = model / eval
	}
	if model > 0 {
		b.m["fhir.model_encode_pct"] = 100 * encode / model
	}
	b.m["fhir.unattributed_pct"] = unattributedPct(b.tr, "bench.op")

	if w.bsgsLive > 0 {
		return w.live(b)
	}
	return nil
}

// unattributedPct is the share of the named root spans' time that none of
// their child spans cover: the root's self time over its duration.
func unattributedPct(t *tracer, root string) float64 {
	self := selfTimes(t.spans)
	var own, total time.Duration
	for i, s := range t.spans {
		if s.Name == root && s.Parent < 0 {
			own += self[i]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(own) / float64(total)
}
