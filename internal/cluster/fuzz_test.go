package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hydra/internal/ckks"
)

// Instruction kinds of a fuzzed script.
const (
	kAdd   = iota // kernel: Dst = reg + reg, an error when reg is undefined
	kFail         // kernel that returns an error
	kPanic        // kernel that rotates by an index with no key: ckks panics
	kNil          // kernel instruction without a kernel
	kSend         // send reg to a peer that may be this card or out of range
	kRecv         // receive a tag that may never be sent, or sent twice
	kBadOp        // an opcode outside the instruction set
	numKinds
)

// maxInstrs bounds a script: enough sends to fill a 64-frame link.
const maxInstrs = 128

// script decodes data into one stream per card. data[0] picks 2 to 4 cards;
// each following 3-byte group (card, kind, arg) appends one instruction.
// "x" is preloaded on every card, "y" and "z" are defined only by earlier
// kernels and receives, and "missing" never is.
func script(data []byte) [][]Instr {
	if len(data) == 0 {
		return nil
	}
	regs := []string{"x", "y", "z", "missing"}
	cards := 2 + int(data[0])%3
	progs := make([][]Instr, cards)
	for i := 1; i+2 < len(data) && i < 1+3*maxInstrs; i += 3 {
		c, arg := int(data[i])%cards, int(data[i+2])
		reg, dst, tag := regs[arg%4], regs[1+(arg>>2)%2], arg>>6
		var ins Instr
		switch data[i+1] % numKinds {
		case kAdd:
			ins = Instr{Op: OpKernel, Dst: dst, Kernel: func(_ context.Context, eval *ckks.Evaluator, store map[string]*ckks.Ciphertext) (*ckks.Ciphertext, error) {
				a, ok := store[reg]
				if !ok {
					return nil, fmt.Errorf("register %q undefined", reg)
				}
				return eval.Add(a, a), nil
			}}
		case kFail:
			ins = Instr{Op: OpKernel, Dst: dst, Kernel: fail(errors.New("kernel failed"))}
		case kPanic:
			ins = Instr{Op: OpKernel, Dst: dst, Kernel: rotate("x", 5)}
		case kNil:
			ins = Instr{Op: OpKernel, Dst: dst}
		case kSend:
			ins = Instr{Op: OpSend, Src: reg, Peer: (arg>>2)%(cards+2) - 1, Tag: tag}
		case kRecv:
			ins = Instr{Op: OpRecv, Dst: dst, Tag: tag}
		case kBadOp:
			ins = Instr{Op: OpRecv + 1 + OpCode(arg)}
		}
		progs[c] = append(progs[c], ins)
	}
	return progs
}

// FuzzClusterScripts runs random 2- to 4-card scripts over Kernel, Send and
// Recv — undefined registers, self-sends, peers out of range, receives with
// no send, reused tags, kernels that fail or panic — each under a short
// deadline. Run must return, an error or nil, within the deadline plus slack,
// and leave no goroutine behind.
func FuzzClusterScripts(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, kAdd, 3},                // a kernel reads an undefined register
		{0, 0, kSend, 4},               // card 0 sends to itself
		{0, 0, kSend, 0, 0, kSend, 12}, // peers -1 and 2 on two cards
		{1, 1, kRecv, 0},               // a receive nobody sends
		{0, 0, kSend, 8, 0, kSend, 8, 0, kSend, 72, 1, kRecv, 64, 1, kRecv, 0, 1, kRecv, 0}, // tag 0 sent twice
		{2, 0, kFail, 0, 1, kRecv, 0, 3, kRecv, 0},                                          // a failed kernel, peers parked
		{2, 3, kPanic, 0, 0, kRecv, 0},                                                      // a panicking kernel
		{0, 0, kNil, 0, 1, kBadOp, 0},                                                       // no kernel; a bad opcode
		{0, 0, kAdd, 0, 0, kSend, 9, 1, kRecv, 0, 1, kAdd, 1},                               // a clean exchange
	} {
		f.Add(seed)
	}
	e := newEnv(f, 6, 2, []int{1})
	x := e.encryptSeq(e.params.DefaultScale())
	const deadline, slack = 50 * time.Millisecond, 5 * time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		progs := script(data)
		if progs == nil {
			return
		}
		cl := New(e.params, e.eval, len(progs))
		for c := range progs {
			cl.Load(c, "x", x)
		}
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = cl.Run(ctx, progs) // an error or nil: only a hang or a leak fails
		}()
		select {
		case <-done:
		case <-time.After(deadline + slack):
			t.Fatalf("Run hung on script %v", data)
		}
		for stop := time.Now().Add(slack); runtime.NumGoroutine() > base && time.Now().Before(stop); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("goroutines leaked: %d before, %d after", base, n)
		}
	})
}
