package hefloat

import (
	"testing"

	"hydra/internal/ckks"
)

func benchEnv(b *testing.B, logN, levels int, rots []int) *testEnv {
	b.Helper()
	return newEnv(b, logN, levels, rots)
}

// One baby step per diagonal (bs = Dim): the rotate-multiply-accumulate form
// BSGS improves on, the upper path of the paper's Fig. 3(d).
func BenchmarkLinearTransformNaive(b *testing.B) {
	env := benchEnv(b, 9, 3, allRotations(1<<8))
	lt, _ := NewLinearTransform(seqMatrix(env.params.Slots()))
	pt, _ := encodeMax(env.enc, make([]complex128, env.params.Slots()))
	ct := env.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lt.EvaluateBSGS(env.eval, env.enc, ct, lt.Dim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearTransformBSGS(b *testing.B) {
	env := benchEnv(b, 9, 3, allRotations(1<<8))
	lt, _ := NewLinearTransform(seqMatrix(env.params.Slots()))
	pt, _ := encodeMax(env.enc, make([]complex128, env.params.Slots()))
	ct := env.encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lt.EvaluateBSGS(env.eval, env.enc, ct, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolynomialTree(b *testing.B) {
	env := benchEnv(b, 10, 7, nil)
	pt, _ := encodeMax(env.enc, make([]complex128, env.params.Slots()))
	ct := env.encr.Encrypt(pt)
	coeffs := make([]float64, 60)
	for i := range coeffs {
		coeffs[i] = 1.0 / float64(i+1)
	}
	poly := Polynomial{Coeffs: coeffs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateTree(env.eval, ct, poly); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootstrap(b *testing.B) {
	var bt *Bootstrapper
	var params *ckks.Parameters
	var enc *ckks.Encoder
	var encr *ckks.Encryptor
	params, enc, encr, _, _, bt = bootEnv(b)
	pt, _ := enc.EncodeAtLevel(make([]complex128, params.Slots()), params.DefaultScale(), 0)
	ct := encr.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Bootstrap(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCMMCompiled measures the weights-resident steady state: the
// transform is built and its plan compiled once, so each iteration is pure
// evaluation — the recurring cost of the paper's PCMM recipe.
func BenchmarkPCMMCompiled(b *testing.B) {
	env := benchEnv(b, 5, 3, PCMMRotations(4))
	k := matK(env)
	x := seqRealMatrix(k, 0.1)
	w := seqRealMatrix(k, 0.9)
	pt, _ := packMatrix(env.enc, x, env.params.MaxLevel(), env.params.DefaultScale())
	ct := env.encr.Encrypt(pt)
	lt, err := NewPCMMTransform(w, env.params.Slots())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lt.EvaluateBSGS(env.eval, env.enc, ct, env.params.Slots()); err != nil {
		b.Fatal(err) // warm compile: the plan cache is populated before timing
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lt.EvaluateBSGS(env.eval, env.enc, ct, env.params.Slots()); err != nil {
			b.Fatal(err)
		}
	}
}
