// Package model describes the four FHE deep-learning benchmarks of the
// paper's evaluation — ResNet-18, ResNet-50 (multiplexed-packing CNNs per
// Lee et al.), BERT-base and OPT-6.7B (NEXUS-style transformers) — as
// sequences of procedures with the application-level parallelism and
// per-unit FHE operation recipes of Table I. A Network is emitted through
// the mapping strategies onto a card fleet and executed by the simulator.
package model

import (
	"fmt"

	"hydra/internal/fheop"
	"hydra/internal/mapping"
)

// pcmmEnergyScale derates PCMM/CCMM dynamic energy for operand residency
// (see Emit).
const pcmmEnergyScale = 0.7

// Kind enumerates the key procedures of Section III-A.
type Kind int

// Procedure kinds.
const (
	ConvBN Kind = iota
	Pooling
	FC
	PCMM
	CCMM
	NonLinear
	Bootstrap
)

// String returns the procedure mnemonic.
func (k Kind) String() string {
	switch k {
	case ConvBN:
		return "ConvBN"
	case Pooling:
		return "Pooling"
	case FC:
		return "FC"
	case PCMM:
		return "PCMM"
	case CCMM:
		return "CCMM"
	case NonLinear:
		return "NonLinear"
	case Bootstrap:
		return "Bootstrap"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Recipe returns the per-parallel-unit FHE operations of Table I.
func (k Kind) Recipe() fheop.Counts {
	switch k {
	case ConvBN:
		return mapping.ConvBNUnit
	case Pooling:
		return mapping.PoolUnit
	case FC:
		return mapping.FCUnit
	case PCMM:
		return mapping.PCMMUnit
	case CCMM:
		return mapping.CCMMUnit
	case NonLinear:
		return mapping.NonlinearUnit
	default:
		return fheop.Counts{}
	}
}

// Procedure is one step of a benchmark.
type Procedure struct {
	Label     string // Fig. 6 attribution: ConvBN, Pool, FC, ReLU, Boot, Attention, FFN, Norm
	Kind      Kind
	Units     int // application-level parallelism (Table I)
	OutputCts int // packed activation ciphertexts produced (Table I "Ciphertext" row)
	Degree    int // polynomial degree for NonLinear
	Cts       int // ciphertexts refreshed (Bootstrap) or evaluated (NonLinear)
	Limbs     int // limb count the ops run at (0 = machine default)
}

// Network is a full benchmark.
type Network struct {
	Name       string
	Procedures []Procedure
}

// Labels returns the distinct procedure labels in order of first appearance.
func (n Network) Labels() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range n.Procedures {
		if !seen[p.Label] {
			seen[p.Label] = true
			out = append(out, p.Label)
		}
	}
	return out
}

// Validate checks the network against the parallelism ranges of Table I.
func (n Network) Validate() error {
	if len(n.Procedures) == 0 {
		return fmt.Errorf("model: %s has no procedures", n.Name)
	}
	for i, p := range n.Procedures {
		switch p.Kind {
		case Bootstrap:
			if p.Cts <= 0 {
				return fmt.Errorf("model: %s procedure %d: bootstrap needs Cts > 0", n.Name, i)
			}
		case NonLinear:
			if p.Cts <= 0 || p.Degree < 1 || p.OutputCts <= 0 {
				return fmt.Errorf("model: %s procedure %d: non-linear needs Cts, Degree and OutputCts", n.Name, i)
			}
		default:
			if p.Units <= 0 || p.OutputCts <= 0 {
				return fmt.Errorf("model: %s procedure %d: needs Units and OutputCts", n.Name, i)
			}
		}
	}
	return nil
}

// Emit lowers the network onto the context's cards using the Section III
// mapping strategies. boot carries the bootstrapping configuration (the DFT
// parameters are re-optimized per batch inside BootstrapBatch) and times the
// Eq. 1 operation latencies of the target machine.
func (n Network) Emit(ctx *mapping.Context, boot mapping.BootstrapOptions, times mapping.OpTimes) error {
	if err := n.Validate(); err != nil {
		return err
	}
	for i, p := range n.Procedures {
		sub := *ctx
		if p.Limbs > 0 {
			sub.Limbs = p.Limbs
		}
		// Matrix-multiplication procedures rotate one scratchpad-resident
		// ciphertext against streamed plaintext rows, so their off-chip
		// energy is far below the streaming roofline.
		if p.Kind == PCMM || p.Kind == CCMM {
			ctx.B.SetEnergyScale(pcmmEnergyScale)
		} else {
			ctx.B.SetEnergyScale(1)
		}
		var err error
		switch p.Kind {
		case ConvBN, Pooling, PCMM, CCMM:
			if p.Kind == ConvBN || p.Kind == Pooling {
				err = sub.DistributeBroadcast(p.Units, p.Kind.Recipe(), p.OutputCts, p.Label)
			} else {
				err = sub.DistributeLocal(p.Units, p.Kind.Recipe(), p.OutputCts, p.Label)
			}
		case FC:
			err = sub.FC(p.Units, p.Label)
		case NonLinear:
			err = sub.NonLinear(p.Cts, p.Degree, p.OutputCts, p.Label)
		case Bootstrap:
			err = sub.BootstrapBatch(p.Cts, boot, times, p.Label)
		default:
			err = fmt.Errorf("model: unknown procedure kind %v", p.Kind)
		}
		if err != nil {
			return fmt.Errorf("model: %s procedure %d (%s): %w", n.Name, i, p.Label, err)
		}
	}
	return nil
}

// ParallelismRange returns the min and max unit counts of procedures of the
// given kind (the Min./Max. columns of Table I). ok is false if the kind
// does not appear.
func (n Network) ParallelismRange(k Kind) (min, max int, ok bool) {
	for _, p := range n.Procedures {
		u := p.Units
		if p.Kind == Bootstrap || p.Kind == NonLinear {
			u = p.Cts
		}
		if p.Kind != k {
			continue
		}
		if !ok {
			min, max, ok = u, u, true
			continue
		}
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	return min, max, ok
}

// CiphertextRange returns the min and max activation ciphertext counts
// (packed layer outputs and bootstrap batches; non-linear parallel units are
// finer-grained than ciphertexts and excluded).
func (n Network) CiphertextRange() (min, max int) {
	first := true
	for _, p := range n.Procedures {
		c := p.OutputCts
		if p.Kind == Bootstrap {
			c = p.Cts
		}
		if p.Kind == NonLinear {
			continue
		}
		if c == 0 {
			continue
		}
		if first {
			min, max, first = c, c, false
			continue
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return min, max
}
