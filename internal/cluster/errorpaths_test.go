package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hydra/internal/ckks"
)

// TestCardFailureUnblocksPeers is the liveness test for the abort broadcast:
// card 0 dies on an undefined register while card 1 is parked on a Recv that
// will never be satisfied. Without the abort channel this deadlocks Run
// forever; with it, Run returns the root-cause error promptly.
func TestCardFailureUnblocksPeers(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	progs := [][]Instr{
		{{Op: OpRotate, Dst: "y", Src1: "missing", Imm: 1}},
		{{Op: OpRecv, Dst: "u", Tag: 7}},
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run(context.Background(), progs) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the failing card")
		}
		if !strings.Contains(err.Error(), "undefined") {
			t.Fatalf("want the root-cause register error, got: %v", err)
		}
		if errors.Is(err, errAborted) {
			t.Fatalf("abort must not mask the root cause: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked: peer card was never unblocked")
	}
}

// TestCardFailureUnblocksBlockedSend covers the other blocking switch
// operation: card 0 saturates card 1's link buffer and blocks in OpSend
// while card 1 fails without draining. The abort must unwind the sender.
func TestCardFailureUnblocksBlockedSend(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	ct := e.encryptSeq(e.params.DefaultScale())
	cl.Load(0, "x", ct)
	// The switch buffers 64 frames per link; 70 sends guarantee card 0 blocks.
	var p0 []Instr
	for i := 0; i < 70; i++ {
		p0 = append(p0, Instr{Op: OpSend, Src1: "x", Peer: 1, Tag: i})
	}
	progs := [][]Instr{p0, {{Op: OpPMult, Dst: "y", Src1: "nope"}}}
	done := make(chan error, 1)
	go func() { done <- cl.Run(context.Background(), progs) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the failing card")
		}
		if !strings.Contains(err.Error(), "card 1") {
			t.Fatalf("want card 1's failure as root cause, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked: blocked sender was never unblocked")
	}
}

// TestCardPanicBecomesCardError pins panic containment at the card goroutine:
// card 1 rotates by an index the evaluator holds no key for (ckks panics on
// that) while card 0 is parked on a Recv. The panic must become card 1's
// error, fire the abort broadcast so card 0 unwinds, and leave no goroutine
// behind — not take the process down.
func TestCardPanicBecomesCardError(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	cl.Load(1, "x", e.encryptSeq(e.params.DefaultScale()))
	progs := [][]Instr{
		{{Op: OpRecv, Dst: "u", Tag: 7}},
		{{Op: OpCopy, Dst: "y", Src1: "x"}, {Op: OpRotate, Dst: "y", Src1: "y", Imm: 5}},
	}
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- cl.Run(context.Background(), progs) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the panicking card")
		}
		if !strings.Contains(err.Error(), "card 1: pc 1: panic:") {
			t.Fatalf("want card 1's panic at pc 1 as root cause, got: %v", err)
		}
		if errors.Is(err, errAborted) {
			t.Fatalf("abort must not mask the root cause: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked: parked peer was never unblocked")
	}
	// Run waited for both cards, so card 0 has unwound (with errAborted,
	// which Run folds into the root cause); nothing may outlive it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked: %d before, %d after", base, n)
	}
}

// TestRecvFailureAfterBadFrame exercises the unmarshal error path mid-program
// while the sender has more work queued behind the switch.
func TestRecvFailureAfterBadFrame(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	// Inject a corrupt frame directly into card 1's link, then have card 1
	// receive it while card 0 waits for a reply that will never come.
	cl.links[1] <- frame{tag: 3, data: []byte("not a ciphertext")}
	progs := [][]Instr{
		{{Op: OpRecv, Dst: "u", Tag: 9}},
		{{Op: OpRecv, Dst: "v", Tag: 3}},
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run(context.Background(), progs) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an unmarshal error")
		}
		if !strings.Contains(err.Error(), "card 1") {
			t.Fatalf("want card 1's unmarshal failure as root cause, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after a corrupt frame")
	}
}

// TestBuilderValidation covers the instruction-stream builder's error paths:
// malformed layers must be rejected before any card runs.
func TestBuilderValidation(t *testing.T) {
	if _, err := BuildConv(2, ConvLayer{}); err == nil {
		t.Fatal("BuildConv: expected error for an empty layer")
	}
	if _, err := BuildConv(2, ConvLayer{Rotations: []int{0, 1}, Weights: []*ckks.Plaintext{nil}}); err == nil {
		t.Fatal("BuildConv: expected error for mismatched rotations/weights")
	}
}

// TestCancellationUnblocksParkedRecv is the serving-layer timeout path: both
// cards are parked on receives that no peer will ever satisfy (a hung job),
// and only the caller's context cancellation can unwind them. Run must
// return promptly with the context's error, not the abort marker.
func TestCancellationUnblocksParkedRecv(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	progs := [][]Instr{
		{{Op: OpRecv, Dst: "u", Tag: 40}},
		{{Op: OpRecv, Dst: "v", Tag: 41}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cl.Run(ctx, progs) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a cancellation error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in the chain, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run ignored the cancelled context")
	}
}

// TestCancellationUnblocksBlockedSend covers the other parked switch
// operation under cancellation: card 0 saturates card 1's link buffer while
// card 1 never drains it (it is itself parked on a recv).
func TestCancellationUnblocksBlockedSend(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 2)
	ct := e.encryptSeq(e.params.DefaultScale())
	cl.Load(0, "x", ct)
	var p0 []Instr
	for i := 0; i < 70; i++ {
		p0 = append(p0, Instr{Op: OpSend, Src1: "x", Peer: 1, Tag: i})
	}
	progs := [][]Instr{p0, {{Op: OpRecv, Dst: "v", Tag: 99}}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cl.Run(ctx, progs) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in the chain, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run ignored the cancelled context while a send was parked")
	}
}

// TestDeadlineAbortsComputeBoundProgram proves a card that never touches the
// switch still honors the context: a long compute-only stream stops at the
// first instruction boundary after the deadline passes.
func TestDeadlineAbortsComputeBoundProgram(t *testing.T) {
	e := newEnv(t, 6, 2, []int{1})
	cl := New(e.params, e.eval, 1)
	ct := e.encryptSeq(e.params.DefaultScale())
	cl.Load(0, "x", ct)
	var p0 []Instr
	for i := 0; i < 100000; i++ {
		p0 = append(p0, Instr{Op: OpRotate, Dst: "x", Src1: "x", Imm: 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := cl.Run(ctx, [][]Instr{p0})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got: %v", err)
	}
}
