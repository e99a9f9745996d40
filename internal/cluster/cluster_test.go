package cluster

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"hydra/internal/ckks"
)

type env struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	eval   *ckks.Evaluator
}

func newEnv(t testing.TB, logN, levels int, rotations []int) *env {
	t.Helper()
	params := ckks.TestParameters(logN, levels)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rotations, false)
	return &env{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, 2),
		decr:   ckks.NewDecryptor(params, sk),
		eval:   ckks.NewEvaluator(params, rlk, rtks),
	}
}

func (e *env) encryptSeq(scale float64) *ckks.Ciphertext {
	vals := make([]complex128, e.params.Slots())
	for i := range vals {
		vals[i] = complex(math.Sin(float64(i)/3), 0)
	}
	pt, _ := e.enc.EncodeAtLevel(vals, scale, e.params.MaxLevel())
	return e.encr.Encrypt(pt)
}

func maxSlotErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestDistributedConvMatchesSingleCard(t *testing.T) {
	const cards = 4
	rotations := []int{0, 1, 2, 3, 4, 5, 6, 7}
	e := newEnv(t, 8, 3, rotations)
	ct := e.encryptSeq(e.params.DefaultScale())

	layer := ConvLayer{Rotations: rotations}
	for k := range rotations {
		w := make([]complex128, e.params.Slots())
		for i := range w {
			w[i] = complex(0.1*float64(k+1), 0)
		}
		pt, err := e.enc.EncodeAtLevel(w, e.params.DefaultScale(), ct.Level())
		if err != nil {
			t.Fatal(err)
		}
		layer.Weights = append(layer.Weights, pt)
	}

	progs, err := BuildConv(cards, layer)
	if err != nil {
		t.Fatal(err)
	}
	cl := New(e.params, e.eval, cards)
	for c := 0; c < cards; c++ {
		cl.Load(c, "x", ct)
	}
	if err := cl.Run(context.Background(), progs); err != nil {
		t.Fatal(err)
	}

	// Every card must hold every kernel output, identical to the
	// single-card computation.
	for k := range rotations {
		single := e.eval.Rescale(e.eval.MulPlain(e.eval.Rotate(ct, rotations[k]), layer.Weights[k]))
		want := e.enc.Decode(e.decr.Decrypt(single))
		name := "out" + string(rune('0'+k))
		for c := 0; c < cards; c++ {
			got, err := cl.Get(c, name)
			if err != nil {
				t.Fatalf("card %d: %v", c, err)
			}
			dec := e.enc.Decode(e.decr.Decrypt(got))
			if err := maxSlotErr(dec, want); err > 1e-5 {
				t.Fatalf("card %d kernel %d: error %g", c, k, err)
			}
		}
	}
}

func TestClusterErrors(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	// Undefined register.
	err := cl.Run(context.Background(), [][]Instr{{{Op: OpRotate, Dst: "y", Src1: "missing", Imm: 1}}, nil})
	if err == nil {
		t.Fatal("expected undefined-register error")
	}
	// Bad peer.
	cl2 := New(e.params, e.eval, 2)
	ct := e.encryptSeq(e.params.DefaultScale())
	cl2.Load(0, "x", ct)
	err = cl2.Run(context.Background(), [][]Instr{{{Op: OpSend, Src1: "x", Peer: 5, Tag: 1}}, nil})
	if err == nil {
		t.Fatal("expected bad-peer error")
	}
	// Program count mismatch.
	if err := cl.Run(context.Background(), [][]Instr{nil}); err == nil {
		t.Fatal("expected program-count error")
	}
	// Get on missing register.
	if _, err := cl.Get(0, "nope"); err == nil {
		t.Fatal("expected missing-register error")
	}
}

func TestOutOfOrderTagsAreBuffered(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	ct := e.encryptSeq(e.params.DefaultScale())
	cl.Load(0, "a", ct)
	cl.Load(0, "b", ct)
	// Card 0 sends tag 2 then tag 1; card 1 receives tag 1 first.
	progs := [][]Instr{
		{
			{Op: OpSend, Src1: "a", Peer: 1, Tag: 2},
			{Op: OpSend, Src1: "b", Peer: 1, Tag: 1},
		},
		{
			{Op: OpRecv, Dst: "first", Tag: 1},
			{Op: OpRecv, Dst: "second", Tag: 2},
		},
	}
	if err := cl.Run(context.Background(), progs); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(1, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(1, "second"); err != nil {
		t.Fatal(err)
	}
}
