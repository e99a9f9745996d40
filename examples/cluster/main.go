// Functional scale-out FHE: four "cards" (goroutines with real CKKS state)
// cooperatively execute a distributed BSGS matrix-vector product, exchanging
// serialized ciphertexts over a channel switch. The program is written with
// internal/fhir's builder, compiled, and lowered onto the cards by
// fhir.LowerCluster; card 0's result must equal fhir.Evaluate's on one
// evaluator word for word, or the example exits non-zero — the whole Hydra
// stack, from instruction preloading to hardware-style synchronization to
// CKKS arithmetic, running for real at laptop scale.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/fhir"
)

func main() {
	const cards, levels, bs, gs = 4, 3, 4, 4
	params := ckks.TestParameters(8, levels) // N = 256
	slots := params.Slots()

	// y = Σ_g Rot_{g·bs}(Σ_j d_{g,j} ⊙ Rot_j(x)): the BSGS form of a dense
	// matrix with bs·gs diagonals, each plaintext pre-rotated by its giant step.
	b := fhir.NewBuilder(slots)
	x := b.Input("x")
	var giant []*fhir.Value
	for g := 0; g < gs; g++ {
		var baby []*fhir.Value
		for j := 0; j < bs; j++ {
			d := make([]complex128, slots)
			for i := range d {
				d[i] = complex(math.Cos(float64(i+g*bs+j)), 0) / bs / gs
			}
			baby = append(baby, b.MulPlain(b.Rotate(x, j), b.PlainVec(fmt.Sprintf("d%d", g*bs+j), d)))
		}
		giant = append(giant, b.Rotate(b.Sum(baby...), g*bs))
	}
	b.Output(b.Sum(giant...))
	src, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	prog, err := fhir.Compile(src, fhir.Options{Levels: levels})
	if err != nil {
		log.Fatal(err)
	}

	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rots, conj := prog.Rotations()
	eval := ckks.NewEvaluator(params, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, rots, conj))
	enc := ckks.NewEncoder(params)
	decr := ckks.NewDecryptor(params, sk)

	// Encrypt an activation vector.
	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = complex(math.Sin(float64(i)/5), 0)
	}
	pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), levels)
	if err != nil {
		log.Fatal(err)
	}
	ct := ckks.NewEncryptor(params, pk, 2).Encrypt(pt)

	progs, err := fhir.LowerCluster(prog, enc, cards)
	if err != nil {
		log.Fatal(err)
	}
	cl := cluster.New(params, eval, cards)
	for c := 0; c < cards; c++ {
		cl.Load(c, "x", ct)
	}
	if err := cl.Run(context.Background(), progs); err != nil {
		log.Fatal(err)
	}
	got, err := cl.Get(0, "out")
	if err != nil {
		log.Fatal(err)
	}
	want, err := fhir.Evaluate(prog, fhir.EvalContext{Eval: eval, Enc: enc}, map[string]*ckks.Ciphertext{"x": ct})
	if err != nil {
		log.Fatal(err)
	}
	if !got.Equal(want) {
		log.Fatalf("%d-card output differs from fhir.Evaluate", cards)
	}
	fmt.Printf("BSGS matrix-vector product (%d diagonals) on %d functional cards: equal to fhir.Evaluate word for word\n", bs*gs, cards)

	exact, err := fhir.Interpret(src, map[string][]complex128{"x": vals})
	if err != nil {
		log.Fatal(err)
	}
	maxErr := 0.0
	for i, v := range enc.Decode(decr.Decrypt(got)) {
		maxErr = math.Max(maxErr, cmplx.Abs(v-exact[i]))
	}
	fmt.Printf("  decrypted result matches the exact product within %.2e\n", maxErr)
	fmt.Printf("  bytes per ciphertext on the wire: %d\n", len(ckks.MarshalCiphertext(got)))
}
