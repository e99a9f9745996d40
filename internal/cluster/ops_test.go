package cluster

import (
	"context"
	"math/cmplx"
	"testing"

	"hydra/internal/ckks"
)

// fhir.LowerCluster leans on the OpNeg and OpConjugate instructions (negation
// inside the double-angle iterations and the conjugate branch of the compiled
// bootstrap pipeline); pin their card semantics against the evaluator they
// wrap.
func TestNegConjugateOps(t *testing.T) {
	params := ckks.TestParameters(5, 3)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, nil, true) // conjugation key only
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 2)
	decr := ckks.NewDecryptor(params, sk)
	eval := ckks.NewEvaluator(params, rlk, rtks)

	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(0.25*float64(i%5), -0.125*float64(i%3))
	}

	t.Run("neg-conjugate", func(t *testing.T) {
		pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		cl := New(params, eval, 2)
		cl.Load(0, "x", encr.Encrypt(pt))
		progs := [][]Instr{
			{
				{Op: OpNeg, Dst: "nx", Src1: "x"},
				{Op: OpSend, Src1: "nx", Peer: 1, Tag: 1},
				{Op: OpRecv, Dst: "y", Tag: 2},
			},
			{
				{Op: OpRecv, Dst: "nx", Tag: 1},
				{Op: OpConjugate, Dst: "y", Src1: "nx"},
				{Op: OpSend, Src1: "y", Peer: 0, Tag: 2},
			},
		}
		if err := cl.Run(context.Background(), progs); err != nil {
			t.Fatal(err)
		}
		out, err := cl.Get(0, "y")
		if err != nil {
			t.Fatal(err)
		}
		got := enc.Decode(decr.Decrypt(out))
		for i := range vals {
			want := -cmplx.Conj(vals[i])
			if e := cmplx.Abs(got[i] - want); e > 1e-6 {
				t.Fatalf("slot %d: got %v want %v (err %g)", i, got[i], want, e)
			}
		}
	})
}
