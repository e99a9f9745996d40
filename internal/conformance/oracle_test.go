package conformance

import (
	"fmt"
	"path/filepath"
	"testing"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
)

// The differential tests that pin hefloat's production evaluators to this
// package's oracles. They sit beside the oracles because hefloat cannot reach
// them (conformance imports hefloat, not the other way round).

// oracleEnv is a keyed environment of the corpus's standard shape with every
// rotation key below dim.
func oracleEnv(t testing.TB, logN, levels, dim int) *Env {
	t.Helper()
	rots := make([]int, 0, dim)
	for d := 1; d < dim; d++ {
		rots = append(rots, d)
	}
	env, err := buildEnv(paramKey{logN: logN, levels: levels, logP: 50}, rots, false)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func encryptVec(t testing.TB, env *Env, vals []complex128) *ckks.Ciphertext {
	t.Helper()
	pt, err := env.Encoder.EncodeAtLevel(vals, env.Params.DefaultScale(), env.Params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	return ckks.NewEncryptor(env.Params, env.PK, 2).Encrypt(pt)
}

func decode(env *Env, ct *ckks.Ciphertext) []complex128 {
	return env.Encoder.Decode(env.Dec.Decrypt(ct))
}

func seqTransform(t testing.TB, dim int) (*hefloat.LinearTransform, [][]complex128) {
	t.Helper()
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
		for j := range m[i] {
			m[i][j] = complex(float64((i*dim+j)%7)-3, 0)
		}
	}
	lt, err := hefloat.NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	return lt, m
}

// The double-hoisted plan-cached path and the per-rotation oracle must decrypt
// to the same result within the suite's noise tolerance.
func TestEvaluateBSGSMatchesReference(t *testing.T) {
	const dim = 16
	for _, bs := range []int{2, 4, 8, dim} {
		t.Run(fmt.Sprintf("bs=%d", bs), func(t *testing.T) {
			env := oracleEnv(t, 5, 3, dim)
			lt, m := seqTransform(t, dim)
			vals := make([]complex128, dim)
			for i := range vals {
				vals[i] = complex(float64(i%5)-2, float64(i%3)-1)
			}
			ct := encryptVec(t, env, vals)

			got, err := lt.EvaluateBSGS(env.Eval, env.Encoder, ct, bs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := evaluateBSGSReference(lt, env.Eval, env.Encoder, ct, bs)
			if err != nil {
				t.Fatal(err)
			}
			gotVals := decode(env, got)
			if e := MaxSlotError(gotVals, decode(env, want)); e > 1e-2 {
				t.Fatalf("double-hoisted path differs from the oracle by %g", e)
			}
			// Both must also match the plaintext product.
			expect := make([]complex128, dim)
			for i := range m {
				for j := range m[i] {
					expect[i] += m[i][j] * vals[j]
				}
			}
			if e := MaxSlotError(gotVals, expect); e > 1e-2 {
				t.Fatalf("double-hoisted path off plaintext product by %g", e)
			}
		})
	}
}

// TestBootstrapDFTMatchesOracle is the differential the bootstrapper's
// ReferenceBSGS switch used to carry through a whole reference-column
// bootstrap: each of the six DFT transforms, production EvaluateBSGS against
// the oracle BSGS, on the corpus's bootstrap environment and a mod-raised
// ciphertext (the four CoeffToSlot transforms at the ModRaise level, the two
// SlotToCoeff transforms one level down, on a CoeffToSlot output), inside the
// bootstrap program's budget.
func TestBootstrapDFTMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap environment in short mode")
	}
	programs, err := LoadPrograms(filepath.Join("testdata", "programs"))
	if err != nil {
		t.Fatal(err)
	}
	var s *ProgramSpec
	for _, p := range programs {
		if p.usesBootstrap() {
			s = p
		}
	}
	if s == nil {
		t.Fatal("corpus has no bootstrap program")
	}
	rots, conj, err := rotationsFor(s)
	if err != nil {
		t.Fatal(err)
	}
	env, err := buildEnv(keyOf(s), rots, conj)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := env.bootstrapper()
	if err != nil {
		t.Fatal(err)
	}
	in, err := encryptInputs(env, s)
	if err != nil {
		t.Fatal(err)
	}
	raised := env.Eval.RaiseModulus(in[s.Inputs[0].Name])
	conjugate := env.Eval.Conjugate(raised)

	check := func(name string, lt *hefloat.LinearTransform, ct *ckks.Ciphertext) *ckks.Ciphertext {
		t.Helper()
		got, err := lt.EvaluateBSGS(env.Eval, env.Encoder, ct, bt.BabySteps())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := evaluateBSGSReference(lt, env.Eval, env.Encoder, ct, bt.BabySteps())
		if err != nil {
			t.Fatalf("%s (oracle): %v", name, err)
		}
		if e := MaxSlotError(decode(env, got), decode(env, want)); e > s.Budget {
			t.Errorf("%s: EvaluateBSGS differs from the oracle by %.3g, budget %.3g", name, e, s.Budget)
		}
		return got
	}
	p, q, r, sT := bt.CoeffToSlotTransforms()
	u := check("C2S P", p, raised)
	check("C2S Q", q, conjugate)
	check("C2S R", r, raised)
	check("C2S S", sT, conjugate)
	a, b := bt.SlotToCoeffTransforms()
	check("S2C A", a, u)
	check("S2C B", b, u)
}

func TestEvaluateHornerDeg3(t *testing.T) {
	p := hefloat.Polynomial{Coeffs: []float64{0.5, -1, 0.25, 2}}
	env := oracleEnv(t, 10, 5, 0)
	vals := make([]complex128, env.Params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%17)/17.0-0.5, 0)
	}
	res, err := evaluateHorner(env.Eval, encryptVec(t, env, vals), p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(vals))
	for i, v := range vals {
		x := real(v)
		want[i] = complex(0.5-x+0.25*x*x+2*x*x*x, 0)
	}
	if e := MaxSlotError(decode(env, res), want); e > 1e-2 {
		t.Fatalf("Horner degree 3 error %g", e)
	}
}

func TestEvaluateTreeMatchesHorner(t *testing.T) {
	p := hefloat.Polynomial{Coeffs: []float64{0.3, -0.6, 0.2, 0.1, -0.4}}
	env := oracleEnv(t, 10, 7, 0)
	vals := make([]complex128, env.Params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%11)/11.0-0.5, 0)
	}
	ct := encryptVec(t, env, vals)
	a, err := evaluateHorner(env.Eval, ct, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hefloat.EvaluateTree(env.Eval, ct, p)
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxSlotError(decode(env, a), decode(env, b)); e > 1e-2 {
		t.Fatalf("tree and Horner disagree by %g", e)
	}
}

func TestOracleErrors(t *testing.T) {
	env := oracleEnv(t, 8, 2, 0)
	ct := encryptVec(t, env, make([]complex128, env.Params.Slots()))
	if _, err := evaluateHorner(env.Eval, ct, hefloat.Polynomial{Coeffs: []float64{1}}); err == nil {
		t.Fatal("expected degree error")
	}
	deep := hefloat.Polynomial{Coeffs: make([]float64, 20)}
	deep.Coeffs[19] = 1
	if _, err := evaluateHorner(env.Eval, ct, deep); err == nil {
		t.Fatal("expected level error")
	}
	lt, _ := seqTransform(t, env.Params.Slots())
	if _, err := evaluateBSGSReference(lt, env.Eval, env.Encoder, ct, 0); err == nil {
		t.Fatal("expected error for bs=0")
	}
}

// BenchmarkLinearTransformBSGSReference is the single-hoisted per-rotation
// ModDown path EvaluateBSGS replaced; keeping it benchmarked pins the
// ablation the double-hoisting EXPERIMENTS.md tables quote (against
// hefloat's BenchmarkLinearTransformBSGS, same shape).
func BenchmarkLinearTransformBSGSReference(b *testing.B) {
	env := oracleEnv(b, 9, 3, 1<<8)
	lt, _ := seqTransform(b, env.Params.Slots())
	ct := encryptVec(b, env, make([]complex128, env.Params.Slots()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evaluateBSGSReference(lt, env.Eval, env.Encoder, ct, 16); err != nil {
			b.Fatal(err)
		}
	}
}
