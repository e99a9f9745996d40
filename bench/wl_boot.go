package main

import (
	"fmt"
	"math"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
)

// heBoot is one functional bootstrap per op on the BootstrapSmall set the
// hefloat tests pin: N = 512, a 50-bit base modulus under seventeen 45-bit
// levels, a sparse secret.
type heBoot struct {
	env      *ckksEnv
	bt       *hefloat.Bootstrapper
	outLevel int       // of the first op; every later op must match it
	bits     []float64 // -log2(worst slot error), per op
}

const bootTol = 2e-2

func newHeBoot(bool) workload { return &heBoot{outLevel: -1} } // already tiny: smoke runs it as is

func (w *heBoot) setup(b *bench) error {
	logQ := []int{50}
	for i := 0; i < 17; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 9, LogQ: logQ, LogP: 55, Scale: 1 << 45})
	if err != nil {
		return err
	}
	opts := hefloat.BootstrapperOptions{K: 16}
	w.env = newCkksEnv(params, b.cfg.seed, 32, hefloat.BootstrapRotations(params, opts), true)
	t0 := time.Now()
	w.bt, err = hefloat.NewBootstrapper(params, w.env.enc, w.env.eval, opts)
	b.m["hefloat.new_bootstrapper_s"] = time.Since(t0).Seconds()
	return err
}

func (w *heBoot) warmups() int               { return 2 }
func (w *heBoot) sensitivity() float64       { return 0.7 }
func (w *heBoot) warm(b *bench, _ int) error { return w.op(b) }

func (w *heBoot) op(b *bench) error {
	e := w.env
	vals := drawSlots(b.rng, e.params.Slots(), 0.4, false)
	var got []complex128
	var out *ckks.Ciphertext
	var err error
	b.segment("bench.op", func() {
		var pt *ckks.Plaintext
		b.span("ckks.encode", func() { pt, err = e.enc.EncodeAtLevel(vals, e.params.DefaultScale(), 0) })
		if err != nil {
			return
		}
		var ct *ckks.Ciphertext
		b.span("ckks.encrypt", func() { ct = e.encr.Encrypt(pt) })
		b.span("hefloat.bootstrap", func() { out, err = w.bt.Bootstrap(ct) })
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
	worst := maxSlotErr(got, vals)
	if !(worst <= bootTol) {
		return fmt.Errorf("max slot error %.3g after bootstrap exceeds %.0e", worst, bootTol)
	}
	if w.outLevel < 0 {
		w.outLevel = out.Level()
	}
	if out.Level() != w.outLevel || out.Level() < 2 {
		return fmt.Errorf("bootstrap output at level %d, first op at %d (at least 2 wanted)", out.Level(), w.outLevel)
	}
	w.bits = append(w.bits, -math.Log2(worst))
	return nil
}

func (w *heBoot) layers(b *bench) error {
	e := w.env
	ckksUnits(b, e, e.params.MaxLevel())
	b.m["hefloat.bootstrap_ms_p50"] = median(b.tr.referenced("hefloat.bootstrap"))
	b.m["hefloat.precision_bits"] = median(w.bits)

	// The bootstrap pipeline stage by stage through the public functions
	// Bootstrap itself calls, one stage at a time where Bootstrap runs the
	// branches of a stage concurrently: the six DFT transforms against the
	// two sine evaluations.
	vals := drawSlots(b.rng, e.params.Slots(), 0.4, false)
	pt, err := e.enc.EncodeAtLevel(vals, e.params.DefaultScale(), 0)
	if err != nil {
		return err
	}
	raised := e.eval.RaiseModulus(e.encr.Encrypt(pt))
	conj := e.eval.Conjugate(raised)
	p, q, r, s := w.bt.CoeffToSlotTransforms()
	sa, sb := w.bt.SlotToCoeffTransforms()
	bs := w.bt.BabySteps()
	var stageErr error
	dft := func(lt *hefloat.LinearTransform, ct *ckks.Ciphertext) *ckks.Ciphertext {
		out, err := lt.EvaluateBSGS(e.eval, e.enc, ct, bs)
		if err != nil && stageErr == nil {
			stageErr = err
		}
		return out
	}
	var u0, u1, w0, w1, z0, z1 *ckks.Ciphertext
	c2s := func() {
		u0 = e.eval.Add(dft(p, raised), dft(q, conj))
		u1 = e.eval.Add(dft(r, raised), dft(s, conj))
	}
	sine := func() { w0, w1 = w.evalSine(u0), w.evalSine(u1) }
	s2c := func() { z0, z1 = dft(sa, w0), dft(sb, w1) }
	c2s()
	sine()
	s2c()
	if stageErr != nil {
		return stageErr
	}
	got := e.enc.Decode(e.decr.Decrypt(hefloat.AddAligned(e.eval, z0, z1)))
	if worst := maxSlotErr(got, vals); !(worst <= bootTol) {
		return fmt.Errorf("staged bootstrap: max slot error %.3g exceeds %.0e", worst, bootTol)
	}
	dftMS := b.unit(c2s) + b.unit(s2c)
	sineMS := b.unit(sine)
	if stageErr != nil {
		return stageErr
	}
	b.m["hefloat.dft_ms"] = dftMS
	b.m["hefloat.sine_share"] = sineMS / (sineMS + dftMS)
	return nil
}

// evalSine is Bootstrap's sine stage rebuilt from public calls: a
// small-angle Taylor pair, then the double-angle iterations of SineSchedule.
func (w *heBoot) evalSine(u *ckks.Ciphertext) *ckks.Ciphertext {
	eval := w.env.eval
	deg, iters := w.bt.SineSchedule()
	theta := 2 * math.Pi / math.Pow(2, float64(iters))
	y := eval.Rescale(eval.MulByConst(u, theta))
	sinC := make([]float64, deg+1)
	cosC := make([]float64, deg+2)
	fact := 1.0
	for i := 0; i <= deg+1; i++ {
		if i > 0 {
			fact *= float64(i)
		}
		c := 1 / fact
		if i%4 >= 2 {
			c = -c
		}
		if i%2 == 0 {
			cosC[i] = c
		} else if i <= deg {
			sinC[i] = c
		}
	}
	s, err := hefloat.EvaluateTree(eval, y, hefloat.Polynomial{Coeffs: sinC})
	if err != nil {
		panic(err)
	}
	c, err := hefloat.EvaluateTree(eval, y, hefloat.Polynomial{Coeffs: cosC})
	if err != nil {
		panic(err)
	}
	for i := 0; i < iters; i++ {
		sc := eval.Rescale(eval.MulRelin(s, c))
		ss := eval.Rescale(eval.MulRelin(s, s))
		s = eval.Add(sc, sc)
		c = eval.AddConst(eval.Neg(eval.Add(ss, ss)), 1)
	}
	return s
}
