package cluster

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

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

// TestOutOfOrderTagsAreBuffered sends frames that arrive before their
// receives: two tags received in the opposite order, and one tag sent twice
// while card 1 first waits for a third. Every register must hold the frame
// sent into it, one tag's frames taken in the order they were sent, well
// before the deadline.
func TestOutOfOrderTagsAreBuffered(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	a := e.encryptSeq(e.params.DefaultScale())
	sent := map[string]*ckks.Ciphertext{"a": a, "b": e.eval.Rotate(a, 1), "c": e.encryptSeq(e.params.DefaultScale())}
	send := func(src string, tag int) Instr { return Instr{Op: OpSend, Src: src, Peer: 1, Tag: tag} }
	recv := func(dst string, tag int) Instr { return Instr{Op: OpRecv, Dst: dst, Tag: tag} }
	for _, tc := range []struct {
		name  string
		card0 []Instr
		card1 []Instr
		want  map[string]string // card 1 register -> card 0 register sent into it
	}{
		{"two-tags-reversed",
			[]Instr{send("a", 2), send("b", 1)},
			[]Instr{recv("first", 1), recv("second", 2)},
			map[string]string{"first": "b", "second": "a"}},
		{"one-tag-twice",
			[]Instr{send("a", 7), send("b", 7), send("c", 9)},
			[]Instr{recv("c", 9), recv("first", 7), recv("second", 7)},
			map[string]string{"c": "c", "first": "a", "second": "b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(e.params, e.eval, 2)
			for name, ct := range sent {
				cl.Load(0, name, ct)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := cl.Run(ctx, [][]Instr{tc.card0, tc.card1}); err != nil {
				t.Fatal(err)
			}
			for dst, src := range tc.want {
				got, err := cl.Get(1, dst)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(sent[src]) {
					t.Errorf("register %q does not hold the frame sent from %q", dst, src)
				}
			}
		})
	}
}
