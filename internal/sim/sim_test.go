package sim

import (
	"math"
	"testing"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/task"
)

func rotOnly(n int) fheop.Counts { return fheop.Of(fheop.Rotation, n) }

func TestSingleCardSerialCompute(t *testing.T) {
	cfg := HydraConfig()
	b := task.NewBuilder(1, 8)
	b.Step("s")
	b.Compute(0, rotOnly(3), 18, "A")
	b.Compute(0, rotOnly(2), 18, "A")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotT := cfg.Card.OpTime(fheop.Rotation, 18, cfg.Scheme)
	want := 5 * rotT
	if math.Abs(res.Makespan-want)/want > 1e-9 {
		t.Fatalf("makespan %g, want %g", res.Makespan, want)
	}
	if res.OpTotals.Get(fheop.Rotation) != 5 {
		t.Fatalf("op totals %v", res.OpTotals)
	}
	if res.ExposedComm() != 0 {
		t.Fatalf("no comm expected, exposed %g", res.ExposedComm())
	}
}

func TestTwoCardsRunInParallel(t *testing.T) {
	cfg := HydraConfig()
	b := task.NewBuilder(2, 8)
	b.Step("s")
	b.Compute(0, rotOnly(4), 18, "A")
	b.Compute(1, rotOnly(4), 18, "A")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotT := cfg.Card.OpTime(fheop.Rotation, 18, cfg.Scheme)
	if math.Abs(res.Makespan-4*rotT)/rotT > 1e-9 {
		t.Fatalf("parallel makespan %g, want %g", res.Makespan, 4*rotT)
	}
}

func TestSendAfterComputeAndCAR(t *testing.T) {
	cfg := HydraConfig()
	bytes := 1e6
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, rotOnly(1), 18, "A")
	recvs := b.Send(0, c0, []int{1}, bytes, "x")
	b.ComputeAfterRecv(1, recvs[0], fheop.Of(fheop.HAdd, 1), 18, "B")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotT := cfg.Card.OpTime(fheop.Rotation, 18, cfg.Scheme)
	haddT := cfg.Card.OpTime(fheop.HAdd, 18, cfg.Scheme)
	xfer := cfg.Network.SendTime(bytes, 0, []int{1}, 8) + cfg.Network.RecvTime(bytes, 0, 1, 8)
	want := rotT + xfer + haddT
	if math.Abs(res.Makespan-want)/want > 1e-6 {
		t.Fatalf("makespan %g, want %g", res.Makespan, want)
	}
	if res.BytesSent != bytes {
		t.Fatalf("bytes sent %g", res.BytesSent)
	}
}

func TestCommOverlapsCompute(t *testing.T) {
	// Sender keeps computing while its DTU transfers: total time should be
	// compute-bound when the next subtask outlasts the transfer (Fig. 2).
	cfg := HydraConfig()
	bytes := 1e5 // small transfer
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, rotOnly(8), 18, "conv")
	b.Send(0, c0, []int{1}, bytes, "o1")
	b.Compute(0, rotOnly(8), 18, "conv") // runs concurrently with the send
	b.Compute(1, rotOnly(16), 18, "conv")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotT := cfg.Card.OpTime(fheop.Rotation, 18, cfg.Scheme)
	want := 16 * rotT
	if math.Abs(res.Makespan-want)/want > 1e-3 {
		t.Fatalf("overlapped makespan %g, want compute-bound %g", res.Makespan, want)
	}
}

func TestBroadcastCheaperThanUnicastsOnHydra(t *testing.T) {
	cfg := HydraConfig()
	bytes := 20e6
	mk := func(broadcast bool) float64 {
		b := task.NewBuilder(8, 8)
		b.Step("s")
		c0 := b.Compute(0, rotOnly(1), 18, "A")
		if broadcast {
			b.Send(0, c0, []int{1, 2, 3, 4, 5, 6, 7}, bytes, "bc")
		} else {
			for dst := 1; dst < 8; dst++ {
				b.Send(0, c0, []int{dst}, bytes, "uc")
			}
		}
		res, err := Run(b.Build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if bc, uc := mk(true), mk(false); bc >= uc {
		t.Fatalf("broadcast %g should beat unicasts %g", bc, uc)
	}
}

func TestStepBarrier(t *testing.T) {
	cfg := HydraConfig()
	b := task.NewBuilder(2, 8)
	b.Step("one")
	b.Compute(0, rotOnly(4), 18, "A")
	b.Step("two")
	b.Compute(1, rotOnly(4), 18, "B")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotT := cfg.Card.OpTime(fheop.Rotation, 18, cfg.Scheme)
	// The barrier between steps prevents card 1 from starting early.
	if math.Abs(res.Makespan-8*rotT)/rotT > 1e-9 {
		t.Fatalf("barrier makespan %g, want %g", res.Makespan, 8*rotT)
	}
	if len(res.Steps) != 2 || res.Steps[0].Name != "one" {
		t.Fatalf("steps %+v", res.Steps)
	}
	spans := res.StepSpanByName()
	if len(spans) != 2 {
		t.Fatalf("span names %v", spans)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	b := task.NewBuilder(2, 8)
	b.Step("s")
	b.ComputeAfterRecv(0, 3, rotOnly(1), 18, "A") // recv 3 does not exist
	if _, err := Run(b.Build(), HydraConfig()); err == nil {
		t.Fatal("expected validation error")
	}
}

// Programs that reach the simulator from the wire (internal/isa) are not
// built by the Builder: each of these breaks one field no Builder program
// has, and Run must refuse it rather than panic.
func TestRunRejectsUnsimulatable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *task.Step)
	}{
		{"send peer out of range", func(st *task.Step) { st.Comm[0][0].Peers[0] = 7 }},
		{"send to its own card", func(st *task.Step) { st.Comm[0][0].Peers[0] = 0 }},
		{"send with more destinations than receivers", func(st *task.Step) { st.Comm[0][0].Peers = []int{1, 1} }},
		{"recv with two sources", func(st *task.Step) { st.Comm[1][0].Peers = []int{0, 0} }},
		{"zero limbs", func(st *task.Step) { st.Compute[0][0].Limbs = 0 }},
		{"missing card queues", func(st *task.Step) { st.Comm = st.Comm[:1] }},
		{"negative bytes", func(st *task.Step) { st.Comm[0][0].Bytes, st.Comm[1][0].Bytes = -1e3, -1e3 }},
		{"recv wait below -1", func(st *task.Step) { st.Compute[1][0].WaitRecv = -5 }},
		{"send wait below -1", func(st *task.Step) { st.Comm[0][0].WaitCompute = -5 }},
	}
	for _, tc := range cases {
		b := task.NewBuilder(2, 2)
		b.Step("s")
		h := b.Compute(0, rotOnly(1), 18, "A")
		r := b.Send(0, h, []int{1}, 1e6, "x")
		b.ComputeAfterRecv(1, r[0], rotOnly(1), 18, "B")
		p := b.Build()
		tc.mutate(p.Steps[0])
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("%s: Run panicked: %v", tc.name, v)
				}
			}()
			if _, err := Run(p, HydraConfig()); err == nil {
				t.Errorf("%s: Run accepted the program", tc.name)
			}
		}()
	}
}

// TestRunRejectsBadScheme: Run checks the machine's CKKS scheme as it checks
// its card, so a scheme hw.SchemeParams.Validate refuses is an error, not a
// run priced at nonsense limb counts.
func TestRunRejectsBadScheme(t *testing.T) {
	b := task.NewBuilder(1, 1)
	b.Compute(0, rotOnly(1), 18, "A")
	p := b.Build()
	for name, mutate := range map[string]func(s *hw.SchemeParams){
		"zero effective limbs":          func(s *hw.SchemeParams) { s.EffectiveLimb = 0 },
		"effective limbs above the max": func(s *hw.SchemeParams) { s.EffectiveLimb = s.MaxLimbs + 1 },
		"LogN below range":              func(s *hw.SchemeParams) { s.LogN = 9 },
	} {
		cfg := HydraConfig()
		mutate(&cfg.Scheme)
		if _, err := Run(p, cfg); err == nil {
			t.Errorf("%s: Run accepted the scheme", name)
		}
	}
}

// TestRunRejectsZeroDnum: a key switch needs at least one digit, so a card
// without one is an error, not a division by zero in the op model.
func TestRunRejectsZeroDnum(t *testing.T) {
	b := task.NewBuilder(1, 1)
	b.Compute(0, rotOnly(1), 18, "A")
	cfg := HydraConfig()
	cfg.Card.KeySwitchDnum = 0
	if _, err := Run(b.Build(), cfg); err == nil {
		t.Fatal("Run accepted a card with KeySwitchDnum 0")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { task.NewBuilder(0, 8) },
		func() {
			b := task.NewBuilder(2, 8)
			b.Step("s")
			b.Compute(5, rotOnly(1), 18, "A")
		},
		func() {
			b := task.NewBuilder(2, 8)
			b.Step("s")
			b.Compute(0, rotOnly(1), 0, "A")
		},
		func() {
			b := task.NewBuilder(2, 8)
			b.Step("s")
			b.Send(0, task.FromStart, []int{0}, 1, "self")
		},
		func() {
			b := task.NewBuilder(2, 8)
			b.Step("s")
			b.Send(0, task.FromStart, nil, 1, "none")
		},
		func() { task.NewBuilder(2, 8).Send(0, task.FromStart, []int{1}, -1e3, "negative") },
		func() { task.NewBuilder(2, 8).Send(0, task.FromStart, []int{1}, math.NaN(), "nan") },
		func() { task.NewBuilder(2, 8).Send(0, task.FromStart, []int{1}, math.Inf(1), "inf") },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := HydraConfig()
	cfg.CollectTrace = true
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, rotOnly(2), 18, "A")
	b.Send(0, c0, []int{1}, 1e6, "x")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range res.Trace {
		kinds[ev.Kind]++
		if ev.End < ev.Start || ev.End > res.Makespan+1e-12 {
			t.Fatalf("bad trace event %+v (makespan %g)", ev, res.Makespan)
		}
	}
	if kinds["compute"] != 1 || kinds["send"] != 1 || kinds["recv"] != 1 {
		t.Fatalf("trace kinds %v", kinds)
	}
	// Without the flag, no trace is collected.
	cfg.CollectTrace = false
	res2, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace) != 0 {
		t.Fatal("trace collected without the flag")
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := HydraConfig()
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, rotOnly(10), 18, "A")
	b.Send(0, c0, []int{1}, 1e6, "x")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyByUnit["NTT"] <= 0 || res.EnergyByUnit["HBM"] <= 0 {
		t.Fatalf("missing compute/memory energy: %v", res.EnergyByUnit)
	}
	if res.EnergyByUnit["Comm"] <= 0 || res.EnergyByUnit["Static"] <= 0 {
		t.Fatalf("missing comm/static energy: %v", res.EnergyByUnit)
	}
	if res.TotalEnergy() <= res.EnergyByUnit["NTT"] {
		t.Fatal("total energy should exceed any single unit")
	}
	// Fig. 7: DTU/NIC energy is a sub-1% contributor.
	if res.EnergyByUnit["Comm"] > 0.01*res.TotalEnergy() {
		t.Fatalf("comm energy share too large: %v", res.EnergyByUnit)
	}
}

// Float addition is not associative: TotalEnergy must fix its summation
// order, or the last bit moves with the map's iteration order.
func TestTotalEnergyRepeatsBitwise(t *testing.T) {
	res := &Result{EnergyByUnit: map[string]float64{
		"NTT": 0.1, "MM": 0.2, "MA": 0.3, "Auto": 7.7, "HBM": 1e10,
		"Comm": 1e-5, "Static": 3.3e5, "SPM": 9.1e-3,
	}}
	want := math.Float64bits(res.TotalEnergy())
	for i := 1; i < 100; i++ {
		if got := math.Float64bits(res.TotalEnergy()); got != want {
			t.Fatalf("call %d: TotalEnergy bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestSendAfterRemoteComputePanics(t *testing.T) {
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, rotOnly(1), 18, "A")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-card SAC dependency")
		}
	}()
	b.Send(1, c0, []int{0}, 1, "x")
}

func TestProgramTotals(t *testing.T) {
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, fheop.Of(fheop.Rotation, 2, fheop.PMult, 3), 18, "A")
	b.Send(0, c0, []int{1}, 7, "x")
	p := b.Build()
	ops := p.TotalOps()
	if ops.Get(fheop.Rotation) != 2 || ops.Get(fheop.PMult) != 3 {
		t.Fatalf("totals %v", ops)
	}
	if p.TotalBytes() != 7 {
		t.Fatalf("bytes %g", p.TotalBytes())
	}
}

func TestHandshakeOrdering(t *testing.T) {
	// The sender must wait for the receiver's ready signal: if the receiver
	// is busy computing before its recv task, the send is delayed.
	cfg := HydraConfig()
	bytes := 1e6
	b := task.NewBuilder(2, 8)
	b.Step("s")
	c0 := b.Compute(0, fheop.Of(fheop.HAdd, 1), 18, "A")
	// Receiver computes a long task first; its recv (and thus the handshake)
	// only happens afterwards because CAR forces queue consumption order.
	b.Compute(1, rotOnly(20), 18, "B")
	recvs := b.Send(0, c0, []int{1}, bytes, "x")
	b.ComputeAfterRecv(1, recvs[0], fheop.Of(fheop.HAdd, 1), 18, "C")
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rotT := cfg.Card.OpTime(fheop.Rotation, 18, cfg.Scheme)
	haddT := cfg.Card.OpTime(fheop.HAdd, 18, cfg.Scheme)
	if res.Makespan < 20*rotT+haddT {
		t.Fatalf("makespan %g should include the receiver's compute plus the CAR task", res.Makespan)
	}
}

func TestRunOnIdentityMatchesRun(t *testing.T) {
	cfg := HydraConfig()
	b := task.NewBuilder(4, 8)
	b.Step("s")
	for c := 0; c < 4; c++ {
		h := b.Compute(c, rotOnly(3), 18, "A")
		peers := []int{}
		for p := 0; p < 4; p++ {
			if p != c {
				peers = append(peers, p)
			}
		}
		b.Send(c, h, peers, 1e6, "x")
	}
	p := b.Build()
	base, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := RunOn(p, cfg, Placement{Cards: []int{0, 1, 2, 3}, CardsPerServer: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != placed.Makespan {
		t.Fatalf("identity placement changed the makespan: %g vs %g", base.Makespan, placed.Makespan)
	}
}

func TestRunOnServerSpanSlowsTransfers(t *testing.T) {
	// The same two-card program placed inside one server vs. across a server
	// boundary: the cross-server placement pays the slower inter-server links,
	// so its makespan must be strictly larger.
	cfg := HydraConfig()
	b := task.NewBuilder(2, 2)
	b.Step("s")
	c0 := b.Compute(0, fheop.Of(fheop.HAdd, 1), 18, "A")
	recvs := b.Send(0, c0, []int{1}, 8e6, "x")
	b.ComputeAfterRecv(1, recvs[0], fheop.Of(fheop.HAdd, 1), 18, "B")
	p := b.Build()

	local, err := RunOn(p, cfg, Placement{Cards: []int{8, 9}, CardsPerServer: 8})
	if err != nil {
		t.Fatal(err)
	}
	spanning, err := RunOn(p, cfg, Placement{Cards: []int{7, 8}, CardsPerServer: 8})
	if err != nil {
		t.Fatal(err)
	}
	if spanning.Makespan <= local.Makespan {
		t.Fatalf("cross-server placement should be slower: local %g, spanning %g", local.Makespan, spanning.Makespan)
	}
}

func TestRunOnRejectsBadPlacements(t *testing.T) {
	cfg := HydraConfig()
	b := task.NewBuilder(2, 2)
	b.Step("s")
	b.Compute(0, rotOnly(1), 18, "A")
	p := b.Build()
	bad := []Placement{
		{Cards: []int{0}, CardsPerServer: 8},     // wrong arity
		{Cards: []int{0, 0}, CardsPerServer: 8},  // duplicate physical card
		{Cards: []int{0, -1}, CardsPerServer: 8}, // negative card
		{Cards: []int{0, 1}, CardsPerServer: 0},  // bad server width
	}
	for i, pl := range bad {
		if _, err := RunOn(p, cfg, pl); err == nil {
			t.Fatalf("placement %d should have been rejected", i)
		}
	}
}
