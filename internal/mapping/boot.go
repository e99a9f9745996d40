package mapping

import (
	"fmt"
	"math"

	"hydra/internal/fheop"
	"hydra/internal/hw"
)

// OpTimes carries the per-operation latencies Eq. 1 needs: rotation,
// plaintext multiplication, homomorphic addition, and one inter-card
// ciphertext transfer.
type OpTimes struct {
	Rot, PMult, HAdd, Com float64
}

// OpTimesFor derives the Eq. 1 inputs from a card profile at the given limb
// count; comSeconds is the cost of one ciphertext transfer on the target
// interconnect.
func OpTimesFor(card hw.CardProfile, s hw.SchemeParams, limbs int, comSeconds float64) OpTimes {
	return OpTimes{
		Rot:   card.OpTime(fheop.Rotation, limbs, s),
		PMult: card.OpTime(fheop.PMult, limbs, s),
		HAdd:  card.OpTime(fheop.HAdd, limbs, s),
		Com:   comSeconds,
	}
}

// DFTLevelTime evaluates Eq. 1 for one matrix-vector level of the
// bootstrapping DFT: radix r, baby-step count bs, Cn accelerator cards.
//
//	gs_s  = ceil(2r / (Cn·bs))           (giant steps per card)
//	T_bs  = bs·T_rot
//	T_gs  = (bs·T_pmult + (bs-1)·T_hadd + T_rot) · gs_s
//	T_acc = (gs_s-1)·T_hadd + (log2(Cn)+1)·T_com   (0 comms when Cn = 1)
func DFTLevelTime(radix, bs, cards int, t OpTimes) float64 {
	if radix <= 0 || bs <= 0 || cards <= 0 {
		return math.Inf(1)
	}
	gss := float64((giantSteps(radix, bs) + cards - 1) / cards)
	tbs := float64(bs) * t.Rot
	tgs := (float64(bs)*t.PMult + float64(bs-1)*t.HAdd + t.Rot) * gss
	tacc := (gss - 1) * t.HAdd
	if cards > 1 {
		tacc += float64(log2int(cards)+1) * t.Com
	}
	return tbs + tgs + tacc
}

// giantSteps is a DFT level's giant-step count, bs·gs = 2·radix.
func giantSteps(radix, bs int) int { return max(2*radix/bs, 1) }

// DFTParams is a per-level (Radix, bs) choice for the bootstrapping DFT.
type DFTParams struct {
	Radix []int
	BS    []int
}

// Validate checks shape and slot coverage.
func (p DFTParams) Validate(logSlots int) error {
	if len(p.Radix) == 0 || len(p.Radix) != len(p.BS) {
		return fmt.Errorf("mapping: DFT params need matching radix/bs lists")
	}
	prod := 1
	for i, r := range p.Radix {
		if !isPow2(r) || !isPow2(p.BS[i]) {
			return fmt.Errorf("mapping: radix and bs must be powers of two")
		}
		if p.BS[i] > 2*r {
			return fmt.Errorf("mapping: bs %d exceeds 2·radix %d", p.BS[i], 2*r)
		}
		prod *= r
	}
	if prod != 1<<logSlots {
		return fmt.Errorf("mapping: radix product %d does not cover 2^%d slots", prod, logSlots)
	}
	return nil
}

// OptimizeDFT searches the (Radix, bs) space of Table V: `levels` DFT levels
// whose radices multiply to 2^logSlots (multiplication-depth budget of 3 per
// the paper's Section V-G), with bs·gs = 2·Radix per level. On one card the
// algorithmically optimal parameters win; on many cards the search minimizes
// bs + gs/Cn, trading baby-step work (not parallelizable) for giant-step
// work (parallelizable).
func OptimizeDFT(logSlots, levels, cards int, t OpTimes) (DFTParams, float64, error) {
	if levels <= 0 || logSlots < 2*levels {
		return DFTParams{}, 0, fmt.Errorf("mapping: cannot split %d slot bits into %d radix levels", logSlots, levels)
	}
	const minExp, maxExp = 2, 7 // radix 4 … 128, the Table V range
	best := DFTParams{}
	bestTime := math.Inf(1)

	var rec func(level, remaining int, exps []int)
	rec = func(level, remaining int, exps []int) {
		if level == levels {
			if remaining != 0 {
				return
			}
			params := DFTParams{Radix: make([]int, levels), BS: make([]int, levels)}
			total := 0.0
			for i, e := range exps {
				r := 1 << e
				params.Radix[i] = r
				bestBS, bestLevel := 0, math.Inf(1)
				for bs := 1; bs*bs <= 2*r; bs <<= 1 {
					if lt := DFTLevelTime(r, bs, cards, t); lt < bestLevel {
						bestLevel, bestBS = lt, bs
					}
				}
				params.BS[i] = bestBS
				total += bestLevel
			}
			if total < bestTime-1e-15 {
				bestTime = total
				best = params
			}
			return
		}
		for e := minExp; e <= maxExp && e <= remaining; e++ {
			rec(level+1, remaining-e, append(exps, e))
		}
	}
	rec(0, logSlots, make([]int, 0, levels))
	if math.IsInf(bestTime, 1) {
		return DFTParams{}, 0, fmt.Errorf("mapping: no radix decomposition of 2^%d into %d levels within [4,128]", logSlots, levels)
	}
	return best, bestTime, nil
}

// BootstrapOptions configure the bootstrapping mapping.
type BootstrapOptions struct {
	LogSlots  int
	DFT       DFTParams // shared by C2S and S2C
	EvaExpDeg int       // degree of the exp-approximation polynomial (paper: 59)
	DAFIters  int       // double-angle iterations after EvaExp
}

// DefaultBootstrapOptions returns the paper's setting: logSlots 15 DFT split
// over three levels, a degree-59 EvaExp, and three double-angle iterations.
func DefaultBootstrapOptions(s hw.SchemeParams, cards int, t OpTimes) BootstrapOptions {
	logSlots := s.LogN - 1
	dft, _, err := OptimizeDFT(logSlots, s.BootDepth, cards, t)
	if err != nil {
		panic(err)
	}
	return BootstrapOptions{LogSlots: logSlots, DFT: dft, EvaExpDeg: 59, DAFIters: 3}
}

// emitBootstrap emits one full bootstrapping of a single ciphertext across
// the context's cards into the builder's current step: CoeffToSlot (DFT
// levels via the BSGS mapping), EvaExp (Algorithm 1), the Double-Angle
// Formula, and SlotToCoeff (Fig. 3(b)), which mirrors CoeffToSlot.
func (c *Context) emitBootstrap(opts BootstrapOptions, label string) error {
	if err := opts.DFT.Validate(opts.LogSlots); err != nil {
		return err
	}
	if opts.EvaExpDeg < 1 || opts.DAFIters < 0 {
		return fmt.Errorf("mapping: %s: bad EvaExp degree or DAF iterations", label)
	}
	ctx := *c
	ctx.Limbs = c.Scheme.BootLimbs()

	dft := func() error {
		for i, r := range opts.DFT.Radix {
			bs := opts.DFT.BS[i]
			if err := ctx.emitMatVec(bs, giantSteps(r, bs), label); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dft(); err != nil { // CoeffToSlot
		return err
	}
	// EvaExp.
	if err := ctx.emitPolyEval(opts.EvaExpDeg, label); err != nil {
		return err
	}
	// Double-Angle Formula: a short local ladder on the first card, then the
	// refreshed ciphertext is redistributed.
	if opts.DAFIters > 0 {
		root := ctx.Cards[0]
		h := ctx.B.Compute(root, fheop.Of(
			fheop.CMult, opts.DAFIters,
			fheop.PMult, opts.DAFIters,
			fheop.HAdd, opts.DAFIters,
		), ctx.limbs(), label)
		if len(ctx.Cards) > 1 {
			ctx.B.Send(root, h, ctx.others(root), ctx.CtBytes(), label)
		}
	}
	return dft() // SlotToCoeff
}

// BootstrapCounts returns the single-card operation counts of one full
// bootstrap under the given options (used when whole bootstraps are
// distributed because the layer refreshes more ciphertexts than there are
// cards).
func BootstrapCounts(opts BootstrapOptions) fheop.Counts {
	dft := fheop.Counts{} // one DFT pass; SlotToCoeff mirrors CoeffToSlot
	for i, r := range opts.DFT.Radix {
		bs := opts.DFT.BS[i]
		gs := giantSteps(r, bs)
		dft = dft.Add(fheop.Of(
			fheop.Rotation, bs+gs,
			fheop.PMult, bs*gs,
			fheop.HAdd, (bs-1)*gs+gs-1,
		))
	}
	return dft.Scale(2).Add(PolyEvalCounts(opts.EvaExpDeg)).
		Add(fheop.Of(fheop.CMult, opts.DAFIters, fheop.PMult, opts.DAFIters, fheop.HAdd, opts.DAFIters))
}

// BootstrapBatch refreshes `cts` ciphertexts: whole bootstraps stay on single
// cards when cts >= cards (bootstrapping parallelism of Table I); otherwise
// the cards split into groups, each group bootstrapping one ciphertext
// cooperatively. The DFT parameters are re-optimized for the effective group
// size (Table V: the single card's algorithmic optimum differs from the
// multi-card choice that minimizes bs + gs/Cn).
func (c *Context) BootstrapBatch(cts int, opts BootstrapOptions, times OpTimes, label string) error {
	if cts <= 0 {
		return fmt.Errorf("mapping: %s: ciphertext count must be positive", label)
	}
	nc := len(c.Cards)
	levels := len(opts.DFT.Radix)
	if levels == 0 {
		return fmt.Errorf("mapping: %s: options carry no DFT levels", label)
	}
	group := groupSize(cts, nc) // 1 when whole bootstraps stay local
	dft, _, err := OptimizeDFT(opts.LogSlots, levels, group, times)
	if err != nil {
		return fmt.Errorf("mapping: %s: %w", label, err)
	}
	opts.DFT = dft
	if cts >= nc {
		sub := *c
		sub.Limbs = c.Scheme.BootLimbs()
		return sub.DistributeBroadcast(cts, BootstrapCounts(opts), cts, label)
	}
	return c.inGroups(cts, group, label, func(sub *Context) error {
		return sub.emitBootstrap(opts, label)
	})
}
