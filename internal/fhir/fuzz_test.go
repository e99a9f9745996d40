package fhir

import (
	"math/rand"
	"sync"
	"testing"

	"hydra/internal/ckks"
)

// fuzzEnv is built once per process: key generation dominates the cost of a
// fuzz execution, and every generated program draws from the same fixed
// rotation set, so one keyed environment serves all of them.
var (
	fuzzOnce sync.Once
	fuzzCtx  *testEnv
)

const (
	fuzzLogN   = 4 // 8 slots
	fuzzLevels = 4
)

var fuzzRots = []int{1, 2, 3}

func fuzzEnv() *testEnv {
	fuzzOnce.Do(func() {
		params := ckks.TestParameters(fuzzLogN, fuzzLevels)
		kg := ckks.NewKeyGenerator(params, 1)
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		rlk := kg.GenRelinearizationKey(sk)
		rtks := kg.GenRotationKeys(sk, fuzzRots, true)
		fuzzCtx = &testEnv{
			params: params,
			enc:    ckks.NewEncoder(params),
			eval:   ckks.NewEvaluator(params, rlk, rtks),
			dec:    ckks.NewDecryptor(params, sk),
			encr:   ckks.NewEncryptor(params, pk, 2),
		}
	})
	return fuzzCtx
}

// genProgram decodes a byte string into a random DAG over two inputs: each
// byte picks an operation and (implicitly) its operands from the value
// stack. Returns nil when the bytes make no program.
func genProgram(data []byte, slots int) *Program {
	b := NewBuilder(slots)
	stack := []*Value{b.Input("x"), b.Input("y")}
	pick := func(sel byte) *Value { return stack[int(sel)%len(stack)] }
	muls := 0
	for i := 0; i+2 < len(data) && len(stack) < 24; i += 3 {
		op, s0, s1 := data[i], data[i+1], data[i+2]
		a, c := pick(s0), pick(s1)
		var v *Value
		switch op % 10 {
		case 0:
			v = b.Add(a, c)
		case 1:
			v = b.Sub(a, c)
		case 2:
			v = b.Neg(a)
		case 3:
			v = b.AddConst(a, float64(int(s1)%7-3)/4)
		case 4:
			v = b.MulConst(a, float64(int(s1)%9-4)/8)
		case 5:
			v = b.MulPlain(a, b.Plain("", func(slots int) ([]complex128, error) {
				rng := rand.New(rand.NewSource(int64(s1)))
				return randVec(rng, slots), nil
			}))
		case 6:
			// Depth is the scarce resource: cap ciphertext products so most
			// generated programs fit the level budget.
			if muls >= 3 {
				v = b.Add(a, c)
			} else {
				muls++
				v = b.Mul(a, c)
			}
		case 7:
			v = b.Rotate(a, fuzzRots[int(s1)%len(fuzzRots)])
		case 8:
			v = b.Conjugate(a)
		case 9:
			// Re-use an existing value as a second consumer (exercises the
			// single-use guards of LazyRelin and Hoist).
			v = b.Add(a, pick(s0+s1))
		}
		stack = append(stack, v)
	}
	b.Output(stack[len(stack)-1])
	p, err := b.Build()
	if err != nil {
		return nil
	}
	return p
}

// FuzzIRPasses is the differential fuzzer of the pass pipeline: for every
// generated DAG, the fully optimized program and the naive eager program must
// both equal the exact plaintext interpretation within CKKS noise tolerance
// when run on real ciphertexts. Each is evaluated twice on the one evaluator:
// the second run reuses the rows the first handed back, and must give the
// same output word for word and leave the inputs as they were.
func FuzzIRPasses(f *testing.F) {
	// Seed corpus: shapes that exercise each pass.
	f.Add([]byte{0, 0, 1})                                              // one add
	f.Add([]byte{7, 0, 0, 7, 0, 1, 7, 0, 2, 0, 2, 3, 0, 5, 4})          // rotation fold (Hoist RotSum)
	f.Add([]byte{5, 0, 7, 5, 1, 9, 0, 2, 3})                            // plaintext MACs (CSE + DiagMac)
	f.Add([]byte{6, 0, 1, 6, 1, 0, 0, 2, 3})                            // sum of products (LazyRelin)
	f.Add([]byte{4, 0, 5, 3, 2, 1, 8, 1, 0, 1, 3, 2})                   // consts + conjugate
	f.Add([]byte{7, 0, 1, 5, 2, 4, 7, 0, 2, 5, 3, 8, 0, 4, 5, 9, 1, 2}) // shared-use guard
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genProgram(data, 1<<(fuzzLogN-1))
		if src == nil {
			return
		}
		opt, err := Compile(src, Options{Levels: fuzzLevels})
		if err != nil {
			return // exceeded the depth budget: not a pipeline bug
		}
		naive, err := CompileNaive(src, fuzzLevels)
		if err != nil {
			return
		}
		te := fuzzEnv()
		rng := rand.New(rand.NewSource(3))
		plainIn := map[string][]complex128{
			"x": randVec(rng, src.Slots),
			"y": randVec(rng, src.Slots),
		}
		want, err := Interpret(src, plainIn)
		if err != nil {
			t.Fatal(err)
		}
		// Bound the output magnitude: noise tolerance below assumes O(1)
		// slot values, and deep random DAGs can amplify.
		for _, w := range want {
			if real(w) > 1e3 || real(w) < -1e3 || imag(w) > 1e3 || imag(w) < -1e3 {
				return
			}
		}
		ctx := EvalContext{Eval: te.eval, Enc: te.enc}
		for name, p := range map[string]*Program{"optimized": opt, "naive": naive} {
			cts := te.encryptAll(t, plainIn, fuzzLevels)
			ins := map[string]string{"x": ctDigest(cts["x"]), "y": ctDigest(cts["y"])}
			out, err := Evaluate(p, ctx, cts)
			if err != nil {
				t.Fatalf("%s: evaluate: %v\nprogram:\n%s", name, err, p)
			}
			again, err := Evaluate(p, ctx, cts)
			if err != nil {
				t.Fatalf("%s: second evaluate: %v\nprogram:\n%s", name, err, p)
			}
			if !again.Equal(out) {
				t.Fatalf("%s: a second evaluation differs from the first\nprogram:\n%s", name, p)
			}
			for in, d := range ins {
				if ctDigest(cts[in]) != d {
					t.Fatalf("%s: evaluation changed input %s\nprogram:\n%s", name, in, p)
				}
			}
			got := te.decryptSlots(out)
			if e := maxErr(got, want); e > 1e-2 {
				t.Fatalf("%s diverges from the interpreter: max slot error %.3g\nsource:\n%s\ncompiled:\n%s",
					name, e, src, p)
			}
		}
	})
}
