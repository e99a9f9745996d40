package hefloat

import (
	"sync"
	"testing"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// encryptVec is a small helper shared by the plan tests.
func encryptVec(t *testing.T, env *testEnv, vals []complex128) *ckks.Ciphertext {
	t.Helper()
	pt, err := env.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	return env.encr.Encrypt(pt)
}

// Noise regression: the deferred-ModDown path performs strictly fewer
// roundings than a ModDown per rotation (one per giant step instead), so its
// error against the plaintext product must stay within the seed tolerance the
// per-rotation path was accepted at.
func TestEvaluateBSGSNoiseBudget(t *testing.T) {
	const dim, bs = 16, 4
	env := newEnv(t, 5, 3, allRotations(dim))
	m := seqMatrix(dim)
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, dim)
	for i := range vals {
		vals[i] = complex(float64((i*3)%7)/3-1, float64(i%4)/2-1)
	}
	ct := encryptVec(t, env, vals)
	out, err := lt.EvaluateBSGS(env.eval, env.enc, ct, bs)
	if err != nil {
		t.Fatal(err)
	}
	got := env.enc.Decode(env.decr.Decrypt(out))
	if e := maxAbsErr(got, applyPlain(m, vals)); e > 1e-2 {
		t.Fatalf("double-hoisted BSGS noise %g exceeds the seed budget 1e-2", e)
	}
}

// Compile keys plans by (bs, level, scale): a level or scale change must miss
// the cache and produce a fresh plan, while repeated lookups share one.
func TestTransformPlanCacheInvalidation(t *testing.T) {
	const dim = 16
	env := newEnv(t, 5, 3, allRotations(dim))
	lt, err := NewLinearTransform(seqMatrix(dim))
	if err != nil {
		t.Fatal(err)
	}
	scale := env.params.DefaultScale()

	p1, err := lt.planFor(env.enc, 4, 3, scale)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := lt.planFor(env.enc, 4, 3, scale); p2 != p1 {
		t.Fatal("identical (bs, level, scale) must share one compiled plan")
	}
	if pl, _ := lt.planFor(env.enc, 4, 2, scale); pl == p1 {
		t.Fatal("level change must invalidate the plan cache")
	}
	if ps, _ := lt.planFor(env.enc, 4, 3, scale*2); ps == p1 {
		t.Fatal("scale change must invalidate the plan cache")
	}
	if pb, _ := lt.planFor(env.enc, 8, 3, scale); pb == p1 {
		t.Fatal("baby-step change must invalidate the plan cache")
	}

	// A plan compiled at a high level evaluates lower-level ciphertexts
	// (the encoded diagonals truncate), but never the other way around.
	vals := make([]complex128, dim)
	vals[1] = 2
	ct := encryptVec(t, env, vals)
	low := env.eval.Rescale(env.eval.MulPlain(ct, mustEncode(t, env, vals, ct.Level())))
	if _, err := p1.Apply(env.eval, low); err != nil {
		t.Fatalf("high-level plan must evaluate lower-level ciphertext: %v", err)
	}
	lowPlan, err := lt.planFor(env.enc, 4, low.Level(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lowPlan.Apply(env.eval, ct); err == nil {
		t.Fatal("low-level plan must reject a higher-level ciphertext")
	}
}

func mustEncode(t *testing.T, env *testEnv, vals []complex128, level int) *ckks.Plaintext {
	t.Helper()
	pt, err := env.enc.EncodeAtLevel(vals, env.params.DefaultScale(), level)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// Many goroutines race EvaluateBSGS on one LinearTransform: the first caller
// compiles the shared plan, everyone else reuses it, and every result must
// decrypt identically (the plan is immutable and Apply is deterministic).
// Run under -race in CI.
func TestEvaluateBSGSConcurrentSharedPlan(t *testing.T) {
	const dim, bs, workers = 16, 4, 8
	env := newEnv(t, 5, 3, allRotations(dim))
	m := seqMatrix(dim)
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, dim)
	for i := range vals {
		vals[i] = complex(float64(i)/8-1, 0)
	}
	ct := encryptVec(t, env, vals)

	outs := make([]*ckks.Ciphertext, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[w], errs[w] = lt.EvaluateBSGS(env.eval, env.enc, ct, bs)
		}()
	}
	wg.Wait()
	plan, err := lt.planFor(env.enc, bs, ct.Level(), env.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.rots) == 0 {
		t.Fatal("compiled plan has no baby rotations")
	}
	want := env.enc.Decode(env.decr.Decrypt(outs[0]))
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		got := env.enc.Decode(env.decr.Decrypt(outs[w]))
		if e := maxAbsErr(got, want); e != 0 {
			t.Fatalf("worker %d result differs from worker 0 by %g; shared plan must be deterministic", w, e)
		}
	}
	if e := maxAbsErr(want, applyPlain(m, vals)); e > 1e-2 {
		t.Fatalf("concurrent shared-plan result off plaintext product by %g", e)
	}
}

// Serial and parallel scheduling of the plan-cached path must agree bitwise,
// extending the PR-1 differential harness to the double-hoisted evaluator.
func TestEvaluateBSGSParallelSerialBitIdentical(t *testing.T) {
	old := ring.MaxWorkers()
	ring.SetMaxWorkers(4)
	defer ring.SetMaxWorkers(old)
	defer ring.SetSerial(false)

	const dim, bs = 16, 4
	env := newEnv(t, 5, 3, allRotations(dim))
	lt, err := NewLinearTransform(seqMatrix(dim))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, dim)
	for i := range vals {
		vals[i] = complex(float64(i%3), float64(i%2))
	}
	ct := encryptVec(t, env, vals)

	run := func() *ckks.Ciphertext {
		out, err := lt.EvaluateBSGS(env.eval, env.enc, ct, bs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ring.SetSerial(true)
	want := run()
	ring.SetSerial(false)
	got := run()
	if want.Scale != got.Scale {
		t.Fatalf("scale %g vs %g", want.Scale, got.Scale)
	}
	if !want.C0.Equal(got.C0) || !want.C1.Equal(got.C1) {
		t.Fatal("parallel plan evaluation differs bitwise from serial")
	}
}
