package cluster

import (
	"context"
	"math"
	"strings"
	"testing"

	"hydra/internal/ckks"
)

type env struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
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

// rotate is a kernel that rotates register src by k.
func rotate(src string, k int) Kernel {
	return func(_ context.Context, eval *ckks.Evaluator, store map[string]*ckks.Ciphertext) (*ckks.Ciphertext, error) {
		return eval.Rotate(store[src], k), nil
	}
}

// fail is a kernel that returns err.
func fail(err error) Kernel {
	return func(context.Context, *ckks.Evaluator, map[string]*ckks.Ciphertext) (*ckks.Ciphertext, error) {
		return nil, err
	}
}

func TestClusterErrors(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	// Undefined register.
	err := cl.Run(context.Background(), [][]Instr{{{Op: OpSend, Src: "missing", Peer: 1}}, nil})
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("expected undefined-register error, got %v", err)
	}
	// Kernel instruction without a kernel, and an unknown opcode.
	for _, ins := range []Instr{{Op: OpKernel, Dst: "y"}, {Op: OpRecv + 1}} {
		if err := New(e.params, e.eval, 1).Run(context.Background(), [][]Instr{{ins}}); err == nil {
			t.Fatalf("expected an error for %+v", ins)
		}
	}
	// Bad peer.
	cl2 := New(e.params, e.eval, 2)
	ct := e.encryptSeq(e.params.DefaultScale())
	cl2.Load(0, "x", ct)
	err = cl2.Run(context.Background(), [][]Instr{{{Op: OpSend, Src: "x", Peer: 5, Tag: 1}}, nil})
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
			{Op: OpSend, Src: "a", Peer: 1, Tag: 2},
			{Op: OpSend, Src: "b", Peer: 1, Tag: 1},
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
