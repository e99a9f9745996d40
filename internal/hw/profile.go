package hw

import (
	"fmt"

	"hydra/internal/fheop"
)

// CardProfile describes one accelerator card: compute-unit throughput, memory
// system behaviour, and per-unit energy. Times come out of a roofline: an
// operation takes max(compute time, off-chip traffic / HBM bandwidth).
type CardProfile struct {
	Name    string
	ClockHz float64
	Lanes   int // operands processed per cycle by each compute unit (paper: 512)

	// NTTPassEff derates the ideal butterfly throughput for pipeline bubbles
	// and twiddle loading; radix-4 designs (Hydra) sustain more of the ideal
	// rate than radix-8 (Poseidon) at N = 2^16.
	NTTPassEff float64

	// ScratchpadHitRate is the fraction of operand traffic served on-chip
	// (the MAD-style caching Hydra adopts; Poseidon re-fetches from HBM).
	ScratchpadHitRate float64
	HBMBandwidth      float64 // bytes/s

	// Calibration aligns the analytic model with the paper's single-card
	// totals (their numbers come from an RTL-informed simulator we don't
	// have). One scalar per card family; no per-benchmark adjustment.
	Calibration float64

	// Energy model (Joules per invocation / per byte), used by the energy
	// breakdown of Fig. 7 and the EDAP of Table III.
	EnergyNTT     float64 // J per one-limb NTT
	EnergyMA      float64 // J per one-limb coefficient pass
	EnergyMM      float64
	EnergyAuto    float64
	EnergyHBM     float64 // J per byte of off-chip traffic
	EnergyNIC     float64 // J per byte transferred by the DTU
	IdlePowerW    float64 // static power
	AreaMM2       float64 // die-equivalent area at 7nm (for EDAP)
	PowerBudgetW  float64 // TDP-style bound (reporting only)
	HasDTU        bool    // Hydra-S omits the DTU
	KeySwitchDnum int     // digits used by this card's key-switch datapath

	// BatchAmortFrac is the fraction of a single run's time that batching
	// amortizes away (pipeline fill, evaluation-key loads, per-limb setup):
	// a batch of b interchangeable jobs takes t*(a + (1-a)*b) instead of
	// t*b. Zero disables amortization — a batch of b costs b private runs.
	BatchAmortFrac float64
}

// Validate checks the profile.
func (c CardProfile) Validate() error {
	if c.ClockHz <= 0 || c.Lanes <= 0 || c.NTTPassEff <= 0 || c.HBMBandwidth <= 0 {
		return fmt.Errorf("hw: profile %q has non-positive rate fields", c.Name)
	}
	if c.ScratchpadHitRate < 0 || c.ScratchpadHitRate >= 1 {
		return fmt.Errorf("hw: profile %q hit rate %v out of [0,1)", c.Name, c.ScratchpadHitRate)
	}
	if c.Calibration <= 0 {
		return fmt.Errorf("hw: profile %q calibration must be positive", c.Name)
	}
	if c.BatchAmortFrac < 0 || c.BatchAmortFrac >= 1 {
		return fmt.Errorf("hw: profile %q batch amortization %v out of [0,1)", c.Name, c.BatchAmortFrac)
	}
	return nil
}

// BasicOpCycles returns the cycle count of one invocation of the basic
// operator on one RNS limb of N coefficients.
func (c CardProfile) BasicOpCycles(op fheop.BasicOp, s SchemeParams) float64 {
	n := float64(s.N())
	lanes := float64(c.Lanes)
	switch op {
	case fheop.NTT:
		// N/2 · logN butterflies, `lanes` operands (= lanes/2 butterflies)
		// per cycle, derated by the sustained efficiency.
		return (n / 2 * float64(s.LogN)) / (lanes / 2) / c.NTTPassEff
	case fheop.MA, fheop.MM, fheop.Auto:
		return n / lanes
	default:
		panic(fmt.Sprintf("hw: unknown basic op %v", op))
	}
}

// Decompose returns the basic-operator invocation counts of one CKKS-level
// operation at the given limb count. This is the mapping from the FHE
// operation set to the four compute units described in Section IV-A.
func Decompose(op fheop.Op, limbs int, s SchemeParams, dnum int) fheop.BasicCounts {
	if limbs <= 0 {
		panic("hw: limb count must be positive")
	}
	digits := ksDigits(limbs, s, dnum)
	ext := limbs + s.SpecialLimbs // extended basis size during key switch

	var b fheop.BasicCounts
	switch op {
	case fheop.HAdd:
		b[fheop.MA] = 2 * limbs
	case fheop.PMult:
		b[fheop.MM] = 2 * limbs
	case fheop.Rescale:
		// Per component: bring the dropped limb to coefficients, re-express
		// the remainder under each surviving limb, subtract and scale.
		b[fheop.NTT] = 2 * (limbs + 1)
		b[fheop.MM] = 2 * limbs
		b[fheop.MA] = 2 * limbs
	case fheop.KeySwitch:
		b = keySwitchCounts(limbs, digits, ext)
	case fheop.CMult:
		// Tensor product (4 limb-wise multiplications, 1 accumulation) plus
		// the relinearization key switch of the degree-2 term.
		b[fheop.MM] = 4 * limbs
		b[fheop.MA] = limbs
		b = b.Add(keySwitchCounts(limbs, digits, ext))
	case fheop.Rotation, fheop.Conjugate:
		// Automorphism of both components plus the key switch of c1.
		b[fheop.Auto] = 2 * limbs
		b = b.Add(keySwitchCounts(limbs, digits, ext))
	default:
		panic(fmt.Sprintf("hw: unknown op %v", op))
	}
	return b
}

// ksDigits returns the key-switch digit count at the given limb count. The
// digit width is fixed per datapath (alpha = ceil(MaxLimbs/dnum), capped by
// the special-modulus width), so the count grows monotonically with limbs.
func ksDigits(limbs int, s SchemeParams, dnum int) int {
	if dnum <= 0 {
		dnum = s.Dnum
	}
	alpha := (s.MaxLimbs + dnum - 1) / dnum
	if alpha > s.SpecialLimbs {
		alpha = s.SpecialLimbs
	}
	if alpha < 1 {
		alpha = 1
	}
	return (limbs + alpha - 1) / alpha
}

// keySwitchCounts is the RNS hybrid key switch: INTT of the input, digit
// extension NTTs, multiply-accumulate against the key pair, and ModDown.
func keySwitchCounts(limbs, digits, ext int) fheop.BasicCounts {
	var b fheop.BasicCounts
	b[fheop.NTT] = limbs + // INTT of the switched polynomial
		digits*ext + // raise each digit to the extended basis
		2*ext + // INTT of both accumulators before ModDown
		2*limbs // NTT of both outputs after ModDown
	b[fheop.MM] = 2*digits*ext + // multiply-accumulate against (b_i, a_i)
		2*limbs // ModDown scaling
	b[fheop.MA] = 2*digits*ext + 2*limbs
	return b
}

// OpTraffic returns the off-chip bytes an operation moves before scratchpad
// filtering: operands in, result out, and key material for key switches.
func OpTraffic(op fheop.Op, limbs int, s SchemeParams, dnum int) float64 {
	limbBytes := float64(s.N() * 8)
	digits := ksDigits(limbs, s, dnum)
	ext := limbs + s.SpecialLimbs

	l := float64(limbs)
	switch op {
	case fheop.HAdd:
		return (4*l + 2*l) * limbBytes // two inputs, one output (2 limb-vectors each)
	case fheop.PMult:
		return (2*l + l + 2*l) * limbBytes // ct in, pt in, ct out
	case fheop.Rescale:
		return (2*l + 2*l) * limbBytes
	case fheop.KeySwitch:
		return (l + 2*float64(digits*ext) + 2*l) * limbBytes
	case fheop.CMult:
		return (4*l + 2*float64(digits*ext) + 2*l) * limbBytes
	case fheop.Rotation, fheop.Conjugate:
		return (2*l + 2*float64(digits*ext) + 2*l) * limbBytes
	default:
		panic(fmt.Sprintf("hw: unknown op %v", op))
	}
}

// OpTime returns the wall-clock seconds one invocation of op takes on this
// card at the given limb count: a roofline of compute cycles against HBM
// traffic, times the calibration factor.
func (c CardProfile) OpTime(op fheop.Op, limbs int, s SchemeParams) float64 {
	counts := Decompose(op, limbs, s, c.KeySwitchDnum)
	cycles := 0.0
	for _, b := range fheop.BasicOps() {
		cycles += float64(counts.Get(b)) * c.BasicOpCycles(b, s)
	}
	compute := cycles / c.ClockHz
	traffic := OpTraffic(op, limbs, s, c.KeySwitchDnum) * (1 - c.ScratchpadHitRate)
	memory := traffic / c.HBMBandwidth
	t := compute
	if memory > t {
		t = memory
	}
	return t * c.Calibration
}

// EnergyByUnit returns the per-unit energy split of one op invocation,
// keyed for the Fig. 7 breakdown: NTT, MA, MM, Auto, HBM.
func (c CardProfile) EnergyByUnit(op fheop.Op, limbs int, s SchemeParams) map[string]float64 {
	counts := Decompose(op, limbs, s, c.KeySwitchDnum)
	return map[string]float64{
		"NTT":  float64(counts.Get(fheop.NTT)) * c.EnergyNTT,
		"MA":   float64(counts.Get(fheop.MA)) * c.EnergyMA,
		"MM":   float64(counts.Get(fheop.MM)) * c.EnergyMM,
		"Auto": float64(counts.Get(fheop.Auto)) * c.EnergyAuto,
		"HBM":  OpTraffic(op, limbs, s, c.KeySwitchDnum) * (1 - c.ScratchpadHitRate) * c.EnergyHBM,
	}
}
