// Package cluster is a functional scale-out FHE runtime: where internal/sim
// schedules a program's operation counts on modeled cards, this package
// executes its arithmetic. Every card is a goroutine owning real CKKS state
// (an evaluator, its keys, and a named ciphertext store); cards execute
// instruction scripts — Rotate, PMult, CMult, Add, Rescale — and exchange
// serialized ciphertexts over a switch of channels, with the
// Send-After-Compute / Compute-After-Receive ordering arising naturally from
// the per-card program order.
//
// This realizes, at laptop scale, the paper's full stack: the host preloads
// per-card instruction streams (Section IV-D), the cards run them with
// hardware-style synchronization, and the arithmetic is the actual CKKS
// arithmetic of internal/ckks rather than a cost model. The streams come from
// fhir.LowerCluster (any compiled program) or BuildConv (the ring-broadcast
// convolution layer); tests check that what 4 cards compute decrypts to the
// same values as the single-card execution.
//
// Concurrency: cards are plain goroutines (they must be, since a card can
// block on a switch receive while its peer computes), but the CKKS ops they
// execute fan RNS-limb work out through the single global worker pool in
// internal/ring. The pool's slot acquisition is non-blocking and the calling
// card always participates, so nesting cards × limbs stays bounded by
// ring.MaxWorkers (GOMAXPROCS by default) and cannot deadlock; a saturated
// pool simply degrades card-local limb work to inline execution.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hydra/internal/ckks"
)

// errAborted marks a card that was unblocked by the abort broadcast rather
// than failing on its own account; Run reports the root cause instead.
var errAborted = errors.New("aborted: a peer card failed")

// OpCode enumerates the card instruction set.
type OpCode int

// Card instructions. Register operands name entries of the card's ciphertext
// store; Send/Recv move ciphertexts through the switch.
const (
	OpRotate    OpCode = iota // Dst = Rotate(Src1, Imm)
	OpPMult                   // Dst = Src1 ⊙ plaintext operand
	OpCMult                   // Dst = Src1 · Src2 (relinearized)
	OpAdd                     // Dst = Src1 + Src2
	OpSub                     // Dst = Src1 - Src2
	OpRescale                 // Dst = Rescale(Src1)
	OpAddConst                // Dst = Src1 + Const
	OpCopy                    // Dst = Src1
	OpSend                    // transmit Src1 to card Peer under tag Tag
	OpRecv                    // receive tag Tag into Dst
	OpNeg                     // Dst = -Src1
	OpConjugate               // Dst = Conjugate(Src1)
)

// Instr is one instruction of a card's stream.
type Instr struct {
	Op         OpCode
	Dst        string
	Src1, Src2 string
	Imm        int             // rotation amount
	Const      float64         // scalar operand (OpAddConst)
	Plain      *ckks.Plaintext // PMult operand
	Peer       int             // Send destination
	Tag        int             // Send/Recv pairing
}

// Card is one functional accelerator node.
type Card struct {
	ID    int
	Eval  *ckks.Evaluator
	Store map[string]*ckks.Ciphertext
}

// Cluster wires cards together through buffered channels (the switch).
type Cluster struct {
	Params *ckks.Parameters
	Cards  []*Card
	// links[dst] carries framed ciphertexts addressed to dst.
	links []chan frame
}

type frame struct {
	tag  int
	data []byte
}

// New builds a cluster of n cards sharing an evaluator template. Each card
// gets its own store; the evaluator (keys) is shared read-only, as the paper
// preloads identical evaluation keys onto every FPGA.
func New(params *ckks.Parameters, eval *ckks.Evaluator, n int) *Cluster {
	cl := &Cluster{Params: params}
	for i := 0; i < n; i++ {
		cl.Cards = append(cl.Cards, &Card{ID: i, Eval: eval, Store: map[string]*ckks.Ciphertext{}})
		cl.links = append(cl.links, make(chan frame, 64))
	}
	return cl
}

// Load places a ciphertext into a card's store (host preloading).
func (cl *Cluster) Load(card int, name string, ct *ckks.Ciphertext) {
	cl.Cards[card].Store[name] = ct.CopyNew()
}

// Run executes one instruction stream per card concurrently and waits for
// all of them (the Procedure 2 completion signal). The context bounds the
// whole execution: cancellation (a serving-layer timeout, a dropped client)
// unblocks every card — including cards parked on switch sends or receives —
// and Run returns the context's error.
//
// If any card fails mid-program — an instruction error or a panic out of the
// evaluator (missing rotation key, scale mismatch, rescale at level 0) — the
// failure is broadcast through an abort channel so peers blocked on switch
// sends or receives unwind instead of deadlocking; Run then reports the
// root-cause error rather than the secondary aborts. After a failed or
// cancelled Run the switch may hold stale frames, so the cluster must not be
// reused.
func (cl *Cluster) Run(ctx context.Context, programs [][]Instr) error {
	if len(programs) != len(cl.Cards) {
		return fmt.Errorf("cluster: %d programs for %d cards", len(programs), len(cl.Cards))
	}
	abort := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	errs := make([]error, len(cl.Cards))
	for i, prog := range programs {
		wg.Add(1)
		go func(card *Card, prog []Instr, slot *error) {
			defer wg.Done()
			if err := cl.execute(ctx, card, prog, abort); err != nil {
				*slot = err
				once.Do(func() { close(abort) })
			}
		}(cl.Cards[i], prog, &errs[i])
	}
	wg.Wait()
	var aborted error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, errAborted) {
			if aborted == nil {
				aborted = fmt.Errorf("cluster: card %d: %w", i, err)
			}
			continue
		}
		return fmt.Errorf("cluster: card %d: %w", i, err)
	}
	return aborted
}

// execute runs a card's stream in order. Receives block on the switch; the
// per-tag framing keeps out-of-order arrivals from earlier broadcasts safe
// because programs consume tags in emission order. Blocking switch operations
// watch both the abort channel (a peer failure cannot strand this card) and
// the context (a caller cancellation cannot either); compute-bound cards poll
// the context between instructions so a cancelled program stops promptly even
// when it never touches the switch. The evaluator reports contract violations
// by panicking; the recover turns one into this card's error, so a bad
// program fails its own Run instead of the process.
func (cl *Cluster) execute(ctx context.Context, card *Card, prog []Instr, abort <-chan struct{}) (err error) {
	var pc int
	var ins Instr
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pc %d: panic: %v", pc, r)
		}
	}()
	pending := map[int][]byte{} // tag -> frame that arrived early
	for pc, ins = range prog {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
		get := func(name string) (*ckks.Ciphertext, error) {
			ct, ok := card.Store[name]
			if !ok {
				return nil, fmt.Errorf("pc %d: register %q undefined", pc, name)
			}
			return ct, nil
		}
		switch ins.Op {
		case OpRotate:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = card.Eval.Rotate(src, ins.Imm)
		case OpPMult:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			if ins.Plain == nil {
				return fmt.Errorf("pc %d: PMult without plaintext", pc)
			}
			card.Store[ins.Dst] = card.Eval.MulPlain(src, ins.Plain)
		case OpCMult:
			a, err := get(ins.Src1)
			if err != nil {
				return err
			}
			b, err := get(ins.Src2)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = card.Eval.MulRelin(a, b)
		case OpAdd, OpSub:
			a, err := get(ins.Src1)
			if err != nil {
				return err
			}
			b, err := get(ins.Src2)
			if err != nil {
				return err
			}
			if ins.Op == OpAdd {
				card.Store[ins.Dst] = card.Eval.Add(a, b)
			} else {
				card.Store[ins.Dst] = card.Eval.Sub(a, b)
			}
		case OpRescale:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = card.Eval.Rescale(src)
		case OpAddConst:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = card.Eval.AddConst(src, ins.Const)
		case OpNeg:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = card.Eval.Neg(src)
		case OpConjugate:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = card.Eval.Conjugate(src)
		case OpCopy:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			card.Store[ins.Dst] = src.CopyNew()
		case OpSend:
			src, err := get(ins.Src1)
			if err != nil {
				return err
			}
			if ins.Peer < 0 || ins.Peer >= len(cl.Cards) || ins.Peer == card.ID {
				return fmt.Errorf("pc %d: bad peer %d", pc, ins.Peer)
			}
			select {
			case cl.links[ins.Peer] <- frame{tag: ins.Tag, data: ckks.MarshalCiphertext(src)}:
			case <-abort:
				return fmt.Errorf("pc %d: send to card %d: %w", pc, ins.Peer, errAborted)
			case <-ctx.Done():
				return fmt.Errorf("pc %d: send to card %d: %w", pc, ins.Peer, ctx.Err())
			}
		case OpRecv:
			data, ok := pending[ins.Tag]
			for !ok {
				select {
				case f := <-cl.links[card.ID]:
					if f.tag == ins.Tag {
						data = f.data
						ok = true
					} else {
						pending[f.tag] = f.data
					}
				case <-abort:
					return fmt.Errorf("pc %d: recv tag %d: %w", pc, ins.Tag, errAborted)
				case <-ctx.Done():
					return fmt.Errorf("pc %d: recv tag %d: %w", pc, ins.Tag, ctx.Err())
				}
			}
			delete(pending, ins.Tag)
			ct, err := ckks.UnmarshalCiphertext(cl.Params, data)
			if err != nil {
				return fmt.Errorf("pc %d: %w", pc, err)
			}
			card.Store[ins.Dst] = ct
		default:
			return fmt.Errorf("pc %d: unknown opcode %d", pc, ins.Op)
		}
	}
	return nil
}

// Get retrieves a ciphertext from a card's store.
func (cl *Cluster) Get(card int, name string) (*ckks.Ciphertext, error) {
	ct, ok := cl.Cards[card].Store[name]
	if !ok {
		return nil, fmt.Errorf("cluster: card %d has no register %q", card, name)
	}
	return ct, nil
}
