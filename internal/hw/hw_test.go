package hw

import (
	"math"
	"testing"
	"testing/quick"

	"hydra/internal/fheop"
)

func TestPaperSchemeDerived(t *testing.T) {
	s := PaperScheme()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N() != 1<<16 || s.Slots() != 1<<15 {
		t.Fatalf("N=%d slots=%d", s.N(), s.Slots())
	}
	// A fresh ciphertext should be "more than 20MB" (Section II-B2).
	if b := s.CiphertextBytes(s.FreshLimbs); b < 20<<20 {
		t.Fatalf("fresh ciphertext %d bytes, want > 20MB", b)
	}
}

func TestSchemeValidation(t *testing.T) {
	bad := []SchemeParams{
		{LogN: 5, MaxLimbs: 28, SpecialLimbs: 10, EffectiveLimb: 18},
		{LogN: 16, MaxLimbs: 0, SpecialLimbs: 10, EffectiveLimb: 18},
		{LogN: 16, MaxLimbs: 28, SpecialLimbs: 10, EffectiveLimb: 40},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// profiles are the three card designs, by name.
func profiles() map[string]CardProfile {
	return map[string]CardProfile{"Hydra": HydraCard(), "FAB": FABCard(), "Poseidon": PoseidonCard()}
}

func TestCardProfilesValid(t *testing.T) {
	for name, c := range profiles() {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestZeroDnumFailsClosed: a key switch needs at least one digit, so a card
// without one is invalid, and the op model refuses to price it.
func TestZeroDnumFailsClosed(t *testing.T) {
	c := HydraCard()
	c.KeySwitchDnum = 0
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted KeySwitchDnum 0")
	}
	s := PaperScheme()
	for name, f := range map[string]func(){
		"Decompose": func() { Decompose(fheop.Rotation, 18, s, 0) },
		"OpTraffic": func() { OpTraffic(fheop.Rotation, 18, s, 0) },
		"dnum -1":   func() { Decompose(fheop.HAdd, 18, s, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on dnum < 1", name)
				}
			}()
			f()
		}()
	}
}

func TestDecomposeShapes(t *testing.T) {
	s := PaperScheme()
	l := 18
	dnum := HydraCard().KeySwitchDnum
	hadd := Decompose(fheop.HAdd, l, s, dnum)
	if hadd.Get(fheop.MA) != 2*l || hadd.Get(fheop.NTT) != 0 {
		t.Fatalf("HAdd decomposition wrong: %v", hadd)
	}
	pm := Decompose(fheop.PMult, l, s, dnum)
	if pm.Get(fheop.MM) != 2*l {
		t.Fatalf("PMult decomposition wrong: %v", pm)
	}
	rot := Decompose(fheop.Rotation, l, s, dnum)
	if rot.Get(fheop.NTT) == 0 || rot.Get(fheop.Auto) != 2*l {
		t.Fatalf("Rotation decomposition wrong: %v", rot)
	}
	cm := Decompose(fheop.CMult, l, s, dnum)
	if cm.Get(fheop.NTT) != rot.Get(fheop.NTT) {
		t.Fatalf("CMult and Rotation should share the key-switch NTT count")
	}
	conj := Decompose(fheop.Conjugate, l, s, dnum)
	if conj != rot {
		t.Fatal("Conjugate should decompose like Rotation")
	}
}

func TestOpTimeOrdering(t *testing.T) {
	s := PaperScheme()
	for name, c := range profiles() {
		l := s.EffectiveLimb
		tHAdd := c.OpTime(fheop.HAdd, l, s)
		tPMult := c.OpTime(fheop.PMult, l, s)
		tRot := c.OpTime(fheop.Rotation, l, s)
		tCMult := c.OpTime(fheop.CMult, l, s)
		if !(tHAdd > 0 && tPMult > 0) {
			t.Fatalf("%s: non-positive op times", name)
		}
		// Key-switch-bearing ops dominate element-wise ops by a large factor.
		if tRot < 5*tPMult || tCMult < 5*tPMult {
			t.Fatalf("%s: rotation (%g) should cost far more than PMult (%g)", name, tRot, tPMult)
		}
		// CMult ≈ Rotation plus the tensor product.
		if tCMult < tRot {
			t.Fatalf("%s: CMult (%g) should cost at least Rotation (%g)", name, tCMult, tRot)
		}
	}
}

func TestOpTimeMonotoneInLimbs(t *testing.T) {
	s := PaperScheme()
	c := HydraCard()
	f := func(seed uint8) bool {
		l := int(seed%20) + 2
		for _, op := range fheop.Ops() {
			if c.OpTime(op, l+1, s) < c.OpTime(op, l, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleCardOrderingMatchesPaper(t *testing.T) {
	// Table II single-card ordering: Hydra-S faster than Poseidon faster
	// than FAB-S.
	s := PaperScheme()
	l := s.EffectiveLimb
	hydra := HydraCard().OpTime(fheop.Rotation, l, s)
	poseidon := PoseidonCard().OpTime(fheop.Rotation, l, s)
	fab := FABCard().OpTime(fheop.Rotation, l, s)
	if !(hydra < poseidon && poseidon < fab) {
		t.Fatalf("rotation times not ordered: hydra=%g poseidon=%g fab=%g", hydra, poseidon, fab)
	}
}

// opEnergy is the Joules one invocation of op consumes on the card: the sum
// of its per-unit split.
func opEnergy(c CardProfile, op fheop.Op, limbs int, s SchemeParams) float64 {
	sum := 0.0
	for _, v := range c.EnergyByUnit(op, limbs, s) {
		sum += v
	}
	return sum
}

func TestOpEnergyBreakdown(t *testing.T) {
	s := PaperScheme()
	c := HydraCard()
	parts := c.EnergyByUnit(fheop.Rotation, s.EffectiveLimb, s)
	// Memory access dominates FHE energy (Fig. 7): HBM should be the largest
	// single contributor for key-switch-bearing ops.
	if parts["HBM"] < parts["MA"] || parts["HBM"] < parts["Auto"] {
		t.Fatalf("HBM energy %g should dominate small units: %v", parts["HBM"], parts)
	}
}

func TestTransferTimes(t *testing.T) {
	hn := HydraNetwork()
	fn := FABNetwork()
	ctBytes := float64(PaperScheme().CiphertextBytes(18))

	hIntra := hn.TransferTime(ctBytes, 0, 3, 8)
	hInter := hn.TransferTime(ctBytes, 0, 9, 8)
	if hIntra <= 0 || hInter < hIntra {
		t.Fatalf("hydra transfers: intra=%g inter=%g", hIntra, hInter)
	}
	if hn.TransferTime(ctBytes, 2, 2, 8) != 0 {
		t.Fatal("self transfer should be free")
	}

	fPair := fn.TransferTime(ctBytes, 0, 1, 2)
	fCross := fn.TransferTime(ctBytes, 0, 5, 2)
	if fCross <= fPair {
		t.Fatalf("FAB cross-host transfer (%g) should exceed the paired path (%g)", fCross, fPair)
	}
	// The paper's core scalability claim: Hydra's card-to-card path is far
	// cheaper than FAB's host-relayed path.
	if fCross < 5*hIntra {
		t.Fatalf("FAB relay (%g) should dwarf Hydra switch path (%g)", fCross, hIntra)
	}
}

func TestBroadcastTimes(t *testing.T) {
	hn := HydraNetwork()
	fn := FABNetwork()
	ctBytes := float64(PaperScheme().CiphertextBytes(18))
	server := []int{1, 2, 3, 4, 5, 6, 7}
	hb := hn.SendTime(ctBytes, 0, server, 8)
	if hb != hn.IntraServer.Transfer(ctBytes) {
		t.Fatalf("hydra broadcast should cost one switch transfer, got %g", hb)
	}
	if hbWide := hn.SendTime(ctBytes, 0, append([]int{8}, server...), 8); hbWide <= hb {
		t.Fatal("cross-server broadcast should cost more than the intra one")
	}
	fb := fn.SendTime(ctBytes, 0, server, 2)
	// Host replication: one PCIe up, one LAN copy per remote host.
	if fb < 3*fn.LAN.Transfer(ctBytes) {
		t.Fatalf("FAB broadcast should pay a LAN copy per remote host, got %g", fb)
	}
	if hn.SendTime(ctBytes, 0, nil, 8) != 0 {
		t.Fatal("empty broadcast should be free")
	}
}

// TestFABSendTimeCountsRemoteHosts holds the FAB send time to one LAN copy
// per distinct remote host, counted here with a set.
func TestFABSendTimeCountsRemoteHosts(t *testing.T) {
	fn := FABNetwork()
	const bytes = 3e7
	var wide []int // 99 remote hosts of one card each
	for c := 99; c > 0; c-- {
		wide = append(wide, c)
	}
	cases := []struct {
		src, cps int
		dsts     []int
	}{
		{0, 2, []int{1, 2, 3, 4, 5, 6, 7}},
		{5, 2, []int{7, 0, 4, 1, 6, 2}},         // unsorted
		{0, 2, []int{3, 2, 3, 9, 2, 8, 9}},      // hosts and cards repeated
		{2, 4, []int{3, 1, 0, 1}},               // all on the source's host
		{9, 8, []int{0, 63, 17, 8, 40, 33, 16}}, // 64 cards, eight per host
		{1, 1, []int{0}},
		{0, 1, wide},
	}
	for _, c := range cases {
		remote := map[int]bool{}
		for _, dst := range c.dsts {
			if h := dst / c.cps; h != c.src/c.cps {
				remote[h] = true
			}
		}
		want := fn.PCIe.Transfer(bytes) + fn.HostSyncLatency + float64(len(remote))*fn.LAN.Transfer(bytes)
		if got := fn.SendTime(bytes, c.src, c.dsts, c.cps); got != want {
			t.Errorf("src %d dsts %v (%d per host): %g, want %g for %d remote hosts", c.src, c.dsts, c.cps, got, want, len(remote))
		}
	}
}

func TestResourceUtilizationTable(t *testing.T) {
	rows := HydraResourceUtilization()
	if len(rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(rows))
	}
	wantPct := map[string]float64{
		"LUTs (k)": 76.5, "FFs (k)": 52.7, "DSP": 96.5, "BRAM": 76.2, "URAMs": 79.8,
	}
	for _, r := range rows {
		want := wantPct[r.Resource]
		if math.Abs(r.Percent()-want) > 0.15 {
			t.Fatalf("%s: %.1f%%, want %.1f%%", r.Resource, r.Percent(), want)
		}
	}
}

func TestOpTrafficPositiveAndMonotone(t *testing.T) {
	s := PaperScheme()
	for _, op := range fheop.Ops() {
		prev := 0.0
		for l := 2; l <= s.MaxLimbs; l += 4 {
			tr := OpTraffic(op, l, s, HydraCard().KeySwitchDnum)
			if tr <= prev {
				t.Fatalf("%v: traffic not increasing at limbs=%d", op, l)
			}
			prev = tr
		}
	}
}

func TestDecomposePanicsOnBadLimbs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for limbs=0")
		}
	}()
	Decompose(fheop.HAdd, 0, PaperScheme(), HydraCard().KeySwitchDnum)
}

func TestSendRecvTimesMonotoneInBytes(t *testing.T) {
	for name, n := range map[string]NetworkProfile{"hydra": HydraNetwork(), "fab": FABNetwork()} {
		f := func(kb uint16) bool {
			b1 := float64(kb) * 1e3
			b2 := b1 + 1e6
			dsts := []int{1, 2, 3}
			return n.SendTime(b2, 0, dsts, 8) >= n.SendTime(b1, 0, dsts, 8) &&
				n.RecvTime(b2, 0, 1, 8) >= n.RecvTime(b1, 0, 1, 8) &&
				n.TransferTime(b2, 0, 1, 2) >= n.TransferTime(b1, 0, 1, 2)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBroadcastNeverCheaperThanWorstUnicastLeg(t *testing.T) {
	n := HydraNetwork()
	bytes := 1e7
	// A broadcast including a cross-server destination costs at least the
	// cross-server point-to-point send.
	bc := n.SendTime(bytes, 0, []int{1, 9}, 8)
	p2p := n.SendTime(bytes, 0, []int{9}, 8)
	if bc < p2p {
		t.Fatalf("broadcast %g cheaper than its worst leg %g", bc, p2p)
	}
}

func TestEnergyPositiveForAllOps(t *testing.T) {
	s := PaperScheme()
	for name, c := range profiles() {
		for _, op := range fheop.Ops() {
			if e := opEnergy(c, op, s.EffectiveLimb, s); e <= 0 {
				t.Fatalf("%s/%v: energy %g", name, op, e)
			}
			if tm := c.OpTime(op, s.EffectiveLimb, s); tm <= 0 {
				t.Fatalf("%s/%v: time %g", name, op, tm)
			}
		}
	}
}

func TestAveragePowerIsPlausible(t *testing.T) {
	// A rotation should burn on the order of an FPGA card's power budget:
	// energy/time within [20W, 600W].
	s := PaperScheme()
	for name, c := range profiles() {
		e := opEnergy(c, fheop.Rotation, s.EffectiveLimb, s)
		tm := c.OpTime(fheop.Rotation, s.EffectiveLimb, s)
		watts := e / tm
		if watts < 20 || watts > 600 {
			t.Fatalf("%s: implied dynamic power %.0f W is implausible", name, watts)
		}
	}
}

func TestFleetServerGeometry(t *testing.T) {
	f := Fleet{Cards: 20, CardsPerServer: 8}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Fleet{Cards: 0, CardsPerServer: 8}).Validate(); err == nil {
		t.Fatal("zero-card fleet should fail validation")
	}
	if err := (Fleet{Cards: 8, CardsPerServer: 0}).Validate(); err == nil {
		t.Fatal("zero-width fleet should fail validation")
	}
}
