package fhir

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"hydra/internal/ckks"
)

// ctDigest is the SHA-256 of a ciphertext's wire form: every residue of both
// components, the level and the scale.
func ctDigest(ct *ckks.Ciphertext) string {
	sum := sha256.Sum256(ckks.MarshalCiphertext(ct))
	return hex.EncodeToString(sum[:])
}

// TestEvaluateOutputsPinned pins, word for word, what Evaluate computes for
// the benchmark's he-mul Horner program and he-rot BSGS product, a lazily
// relinearized sum, a one-group DiagMac and the compiled bootstrap, each
// closed by a rescale. A lowering or evaluator change that moves any residue
// or scale shows up here as a changed digest.
func TestEvaluateOutputsPinned(t *testing.T) {
	prog := func(slots int, body func(b *Builder, x, y, z *Value) *Value) *Program {
		b := NewBuilder(slots)
		b.Output(body(b, b.Input("x"), b.Input("y"), b.Input("z")))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name         string
		logN, levels int
		src          func() (*Program, int) // source program and compile levels
		want         string
	}{
		{"he-mul-horner", 12, 16, func() (*Program, int) { return heMulHorner(t), 16 }, "2c150556b97b88678c3c039d4d89111466b86a9e40c0d24688171ccac03ff1a1"},
		{"he-rot-bsgs", 12, 4, func() (*Program, int) { return buildBSGS(t, 1<<11, 16, 16), 4 }, "f9307dacec7dd8d7b50a8757a319bddd795f6c2898a864691580b9950818be4f"},
		{"lazy-relin-sum", 6, 3, func() (*Program, int) {
			return prog(32, func(b *Builder, x, y, z *Value) *Value {
				return b.Sum(b.Mul(x, y), b.Mul(y, z), b.Mul(b.Rotate(x, 1), z))
			}), 3
		}, "8248b64c189083d2ab054010e08535b3b5c6eb882eb379553f5374de9175664f"},
		{"diagmac", 8, 4, func() (*Program, int) { return diagMacProgram(t, 1<<7, 16, 4, 0), 4 }, "4e4bd653cc6a98851abdd6594cf71c05ec94e1358186a059bb320315945d153a"},
		{"bootstrap-ir", 9, 20, func() (*Program, int) { return bootstrapSmall(t) }, "4467d71638664d53529d64b1899a5a55ece04f2c70b8b4db7fd7c660d34bac85"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "bootstrap-ir" && testing.Short() {
				t.Skip("bootstrap program in short mode")
			}
			if raceEnabled && tc.logN >= 9 {
				t.Skip("full-size program under the race detector: the small ones run the same fan-outs")
			}
			src, levels := tc.src()
			p := src
			if !p.Legal {
				var err error
				if p, err = Compile(src, Options{Levels: levels}); err != nil {
					t.Fatal(err)
				}
			}
			got := ctDigest(evaluatePinned(t, p, tc.logN, levels, tc.name == "bootstrap-ir"))
			if got != tc.want {
				t.Errorf("output digest %s, want %s", got, tc.want)
			}
		})
	}
}

// heMulHorner is the benchmark's he-mul program: a degree-15 Horner
// polynomial over 2048 slots, as a source program for 16 levels.
func heMulHorner(t *testing.T) *Program {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	c := func() float64 { return rng.Float64() - 0.5 }
	b := NewBuilder(1 << 11)
	x := b.Input("x")
	acc := b.AddConst(b.MulConst(x, c()), c())
	for i := 13; i >= 0; i-- {
		acc = b.AddConst(b.Mul(acc, x), c())
	}
	b.Output(acc)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evaluatePinned evaluates p on pinnedEnv's context and inputs.
func evaluatePinned(t *testing.T, p *Program, logN, levels int, boot bool) *ckks.Ciphertext {
	t.Helper()
	ctx, inputs := pinnedEnv(t, p, logN, levels, boot)
	out, err := Evaluate(p, ctx, inputs)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return out
}

// pinnedEnv keys a context for p and encrypts deterministic inputs at the
// program's input level (raised from level 0 for a bootstrap).
func pinnedEnv(t *testing.T, p *Program, logN, levels int, boot bool) (EvalContext, map[string]*ckks.Ciphertext) {
	t.Helper()
	params := ckks.TestParameters(logN, levels)
	if boot {
		logQ := []int{50}
		for i := 0; i < levels; i++ {
			logQ = append(logQ, 45)
		}
		var err error
		if params, err = ckks.NewParameters(ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: 55, Scale: 1 << 45}); err != nil {
			t.Fatal(err)
		}
	}
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKeySparse(32)
	rots, conj := p.Rotations()
	eval := ckks.NewEvaluator(params, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, rots, conj))
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, kg.GenPublicKey(sk), 2)
	rng := rand.New(rand.NewSource(3))
	inputs := map[string]*ckks.Ciphertext{}
	for _, in := range inputsOf(p) {
		vals := randVec(rng, p.Slots)
		for i := range vals {
			vals[i] *= 0.5
		}
		lvl := p.InputLevel
		if boot {
			lvl = 0
		}
		pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), lvl)
		if err != nil {
			t.Fatal(err)
		}
		inputs[in.Name] = encr.Encrypt(pt)
		if boot {
			inputs[in.Name] = eval.RaiseModulus(inputs[in.Name])
		}
	}
	return EvalContext{Eval: eval, Enc: enc}, inputs
}
