package mapping

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/fheop"
	"hydra/internal/fhir"
	"hydra/internal/hefloat"
	"hydra/internal/hw"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func newCtx(cards int) (*Context, *task.Builder) {
	b := task.NewBuilder(cards, 8)
	return NewContext(b, hw.PaperScheme(), cards), b
}

func runOn(t *testing.T, b *task.Builder, cfg sim.Config) *sim.Result {
	t.Helper()
	res, err := sim.Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributeBroadcastOpConservation(t *testing.T) {
	for _, cards := range []int{1, 4, 8} {
		ctx, b := newCtx(cards)
		if err := ctx.DistributeBroadcast(100, ConvBNUnit, 8, "ConvBN"); err != nil {
			t.Fatal(err)
		}
		ops := b.Build().TotalOps()
		if got, want := ops.Get(fheop.Rotation), 800; got != want {
			t.Fatalf("cards=%d: rotations %d, want %d", cards, got, want)
		}
		if got, want := ops.Get(fheop.PMult), 200; got != want {
			t.Fatalf("cards=%d: pmults %d, want %d", cards, got, want)
		}
	}
}

func TestDistributeBroadcastScales(t *testing.T) {
	times := map[int]float64{}
	for _, cards := range []int{1, 8, 64} {
		ctx, b := newCtx(cards)
		if err := ctx.DistributeBroadcast(1024, ConvBNUnit, 32, "ConvBN"); err != nil {
			t.Fatal(err)
		}
		times[cards] = runOn(t, b, sim.HydraConfig()).Makespan
	}
	s8 := times[1] / times[8]
	s64 := times[1] / times[64]
	// Fig. 6: ConvBN speedups over 7× on 8 cards and over 50× on 64 cards.
	if s8 < 6.0 || s8 > 8.5 {
		t.Fatalf("8-card ConvBN speedup %.2f outside [6,8.5]", s8)
	}
	if s64 < 28 || s64 > 66 {
		t.Fatalf("64-card ConvBN speedup %.2f outside [28,66]", s64)
	}
}

// gatherRebroadcast is the ablation of DistributeBroadcast that Figs. 1-2
// argue against: each card computes its whole share at once, all output
// ciphertexts funnel to the first card, and the first card re-broadcasts the
// full layer output after the last arrival — no pipelining, and double the
// volume through one card.
func gatherRebroadcast(c *Context, units int, recipe fheop.Counts, outputCts int, label string) {
	nc := len(c.Cards)
	c.B.Step(label)
	root := c.Cards[0]
	lastRecv := -1
	for ci, card := range c.Cards {
		assigned := perCardShare(units, nc, ci)
		if assigned == 0 {
			continue
		}
		h := c.B.Compute(card, recipe.Scale(assigned), c.limbs(), label)
		if ctsShare := perCardShare(outputCts, nc, ci); card != root && ctsShare > 0 {
			lastRecv = c.B.Send(card, h, []int{root}, float64(ctsShare)*c.CtBytes(), label)[0]
		}
	}
	if lastRecv >= 0 {
		gate := c.B.ComputeAfterRecv(root, lastRecv, fheop.Of(fheop.HAdd, nc-1), c.limbs(), label)
		c.B.Send(root, gate, c.others(root), float64(outputCts)*c.CtBytes(), label)
	}
}

// matVecAblation is MatVec with either of the two choices of Section III-B
// reversed: distributedBS splits the baby-step rotations across the cards
// and all-gathers the rotated ciphertexts (point (1)), and star sends every
// partial sum straight to the first card instead of folding them in
// Fig. 3(d)'s tree (point (2)).
func matVecAblation(c *Context, bs, gs int, distributedBS, star bool, label string) {
	nc := len(c.Cards)
	limbs, bytes := c.limbs(), c.CtBytes()
	c.B.Step(label)
	gate := map[int]int{} // card -> the receive its giant steps wait on
	for ci, card := range c.Cards {
		if !distributedBS {
			c.B.Compute(card, fheop.Of(fheop.Rotation, bs), limbs, label)
			continue
		}
		share := perCardShare(bs, nc, ci)
		if share == 0 {
			continue
		}
		h := c.B.Compute(card, fheop.Of(fheop.Rotation, share), limbs, label)
		if nc > 1 {
			others := c.others(card)
			for di, r := range c.B.Send(card, h, others, float64(share)*bytes, label) {
				gate[others[di]] = r // later receives supersede earlier ones
			}
		}
	}
	partials := make([]task.Handle, nc)
	for ci, card := range c.Cards {
		share := perCardShare(gs, nc, ci)
		ops := fheop.Of(fheop.PMult, bs*share, fheop.HAdd, (bs-1)*share, fheop.Rotation, share)
		if share > 1 {
			ops = ops.Add(fheop.Of(fheop.HAdd, share-1))
		}
		if r, ok := gate[card]; ok {
			partials[ci] = c.B.ComputeAfterRecv(card, r, ops, limbs, label)
		} else {
			partials[ci] = c.B.Compute(card, ops, limbs, label)
		}
	}
	if nc == 1 {
		return
	}
	root := c.Cards[0]
	if star {
		lastRecv := -1
		for ci := 1; ci < nc; ci++ {
			lastRecv = c.B.Send(c.Cards[ci], partials[ci], []int{root}, bytes, label)[0]
		}
		partials[0] = c.B.ComputeAfterRecv(root, lastRecv, fheop.Of(fheop.HAdd, nc-1), limbs, label)
	} else {
		for _, e := range task.Reduction(nil, nc) {
			dst := c.Cards[e.To]
			r := c.B.Send(c.Cards[e.From], partials[e.From], []int{dst}, bytes, label)[0]
			partials[e.To] = c.B.ComputeAfterRecv(dst, r, fheop.Of(fheop.HAdd, 1), limbs, label)
		}
	}
	c.B.Send(root, partials[0], c.others(root), bytes, label)
}

func TestBroadcastBeatsGather(t *testing.T) {
	mk := func(gather bool) float64 {
		ctx, b := newCtx(8)
		if gather {
			gatherRebroadcast(ctx, 256, ConvBNUnit, 8, "ConvBN")
		} else if err := ctx.DistributeBroadcast(256, ConvBNUnit, 8, "ConvBN"); err != nil {
			t.Fatal(err)
		}
		return runOn(t, b, sim.HydraConfig()).Makespan
	}
	if bc, ga := mk(false), mk(true); bc >= ga {
		t.Fatalf("ring broadcast (%g) should beat gather-rebroadcast (%g)", bc, ga)
	}
}

func TestDistributeBroadcastCommVolume(t *testing.T) {
	ctx, b := newCtx(8)
	if err := ctx.DistributeBroadcast(4096, PCMMUnit, 12, "PCMM"); err != nil {
		t.Fatal(err)
	}
	p := b.Build()
	// Each of the 12 output ciphertexts is broadcast once to 7 peers.
	want := 12.0 * 7 * ctx.CtBytes()
	if math.Abs(p.TotalBytes()-want)/want > 1e-9 {
		t.Fatalf("bytes %g, want %g", p.TotalBytes(), want)
	}
}

func TestMatVecOpConservation(t *testing.T) {
	for _, cards := range []int{1, 4, 16} {
		ctx, b := newCtx(cards)
		if err := ctx.MatVec(4, 8, "FC"); err != nil {
			t.Fatal(err)
		}
		ops := b.Build().TotalOps()
		// Giant-step PMults are conserved: bs·gs total.
		if got := ops.Get(fheop.PMult); got != 32 {
			t.Fatalf("cards=%d: pmults %d, want 32", cards, got)
		}
		// Baby steps replicate on every card (uniform-bs design).
		if got := ops.Get(fheop.Rotation); got != 4*cards+8 {
			t.Fatalf("cards=%d: rotations %d, want %d", cards, got, 4*cards+8)
		}
	}
}

// TestMatVecHandCountAboveCompiled keeps the hand emitter honest against the
// compiler on one shape: MatVec charges every baby step on every card,
// rotation by zero included; the fhir pipeline hoists the shared baby
// rotations into one basket per card and never emits the identity rotation,
// so the compiled program must need strictly fewer keyswitches.
func TestMatVecHandCountAboveCompiled(t *testing.T) {
	const bs, gs, cards = 4, 4, 4
	keyswitches := func(c fheop.Counts) int {
		return c.Get(fheop.Rotation) + c.Get(fheop.KeySwitch) + c.Get(fheop.CMult) + c.Get(fheop.Conjugate)
	}
	ctx, hand := newCtx(cards)
	if err := ctx.MatVec(bs, gs, "hand"); err != nil {
		t.Fatal(err)
	}
	dense := make([][]complex128, bs*gs)
	for i := range dense {
		dense[i] = make([]complex128, bs*gs)
		for j := range dense[i] {
			dense[i][j] = 1
		}
	}
	lt, err := hefloat.NewLinearTransform(dense)
	if err != nil {
		t.Fatal(err)
	}
	b := fhir.NewBuilder(bs * gs)
	b.Output(b.LinTrans(b.Input("x"), lt, bs, "m"))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := fhir.Compile(src, fhir.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := fhir.BuildTaskProgram(opt, hw.PaperScheme(), cards, 2, "compiled")
	if err != nil {
		t.Fatal(err)
	}
	if hk, ck := keyswitches(hand.Build().TotalOps()), keyswitches(compiled.TotalOps()); ck >= hk {
		t.Errorf("compiled BSGS uses %d keyswitches, the hand count is %d; hoisting should reduce them", ck, hk)
	}
}

func TestMatVecTreeBeatsStar(t *testing.T) {
	mk := func(star bool) float64 {
		ctx, b := newCtx(16)
		if star {
			matVecAblation(ctx, 2, 64, false, true, "DFT")
		} else if err := ctx.MatVec(2, 64, "DFT"); err != nil {
			t.Fatal(err)
		}
		return runOn(t, b, sim.HydraConfig()).Makespan
	}
	if tree, star := mk(false), mk(true); tree >= star {
		t.Fatalf("tree aggregation (%g) should beat star (%g)", tree, star)
	}
}

func TestMatVecUniformBSBeatsDistributed(t *testing.T) {
	mk := func(dist bool) float64 {
		ctx, b := newCtx(8)
		if dist {
			matVecAblation(ctx, 8, 32, true, false, "DFT")
		} else if err := ctx.MatVec(8, 32, "DFT"); err != nil {
			t.Fatal(err)
		}
		return runOn(t, b, sim.HydraConfig()).Makespan
	}
	if uni, dist := mk(false), mk(true); uni >= dist {
		t.Fatalf("uniform bs (%g) should beat distributed bs (%g)", uni, dist)
	}
}

func TestMatVecRejectsBadInput(t *testing.T) {
	ctx, _ := newCtx(8)
	if err := ctx.MatVec(0, 4, "x"); err == nil {
		t.Fatal("expected error for bs=0")
	}
	ctx3 := ctx.WithCards([]int{0, 1, 2})
	if err := ctx3.MatVec(2, 4, "x"); err == nil {
		t.Fatal("expected error for non power-of-two card set")
	}
}

func TestFCMapping(t *testing.T) {
	ctx, b := newCtx(8)
	if err := ctx.FC(1511, "FC"); err != nil {
		t.Fatal(err)
	}
	ops := b.Build().TotalOps()
	// bs = 64 (64² ≥ 1511), gs = ceil(1511/64) = 24, PMults = bs·gs ≥ 1511.
	if got := ops.Get(fheop.PMult); got < 1511 {
		t.Fatalf("FC pmults %d should cover all 1511 diagonals", got)
	}
}

func TestPolyEvalStructure(t *testing.T) {
	for _, cards := range []int{1, 2, 8} {
		ctx, b := newCtx(cards)
		if err := ctx.PolyEval(59, "ReLU"); err != nil {
			t.Fatal(err)
		}
		p := b.Build()
		ops := p.TotalOps()
		if ops.Get(fheop.CMult) == 0 {
			t.Fatalf("cards=%d: no CMults in polynomial evaluation", cards)
		}
		if cards == 1 && p.TotalBytes() != 0 {
			t.Fatalf("single card should not communicate, sent %g bytes", p.TotalBytes())
		}
		if cards > 1 && p.TotalBytes() == 0 {
			t.Fatalf("cards=%d: expected power forwarding traffic", cards)
		}
		if _, err := sim.Run(p, sim.HydraConfig()); err != nil {
			t.Fatalf("cards=%d: %v", cards, err)
		}
	}
}

func TestPolyEvalSpeedsUp(t *testing.T) {
	mk := func(cards int) float64 {
		ctx, b := newCtx(cards)
		if err := ctx.PolyEval(59, "ReLU"); err != nil {
			t.Fatal(err)
		}
		return runOn(t, b, sim.HydraConfig()).Makespan
	}
	if t1, t2 := mk(1), mk(2); t2 >= t1 {
		t.Fatalf("2-card PolyEval (%g) should beat 1-card (%g)", t2, t1)
	}
}

func TestNonLinearWholeCiphertexts(t *testing.T) {
	ctx, b := newCtx(8)
	if err := ctx.NonLinear(128, 59, 32, "ReLU"); err != nil {
		t.Fatal(err)
	}
	res := runOn(t, b, sim.HydraConfig())
	if res.OpTotals.Get(fheop.CMult) < 128 {
		t.Fatalf("expected at least one CMult per ciphertext, got %d", res.OpTotals.Get(fheop.CMult))
	}
}

func TestNonLinearSplitAcrossGroups(t *testing.T) {
	ctx, b := newCtx(16)
	if err := ctx.NonLinear(4, 59, 4, "GeLU"); err != nil {
		t.Fatal(err)
	}
	p := b.Build()
	if len(p.Steps) != 1 {
		t.Fatalf("grouped non-linear should emit one step, got %d", len(p.Steps))
	}
	if _, err := sim.Run(p, sim.HydraConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestDFTLevelTimeMatchesHandModel(t *testing.T) {
	tt := OpTimes{Rot: 10, PMult: 1, HAdd: 0.5, Com: 2}
	// r=16, bs=4 → gs=8; 4 cards → gs_s=2.
	got := DFTLevelTime(16, 4, 4, tt)
	want := 4*10.0 + (4*1+3*0.5+10)*2 + (2-1)*0.5 + (2+1)*2.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("DFTLevelTime = %g, want %g", got, want)
	}
	// Single card: no communication term.
	got1 := DFTLevelTime(16, 4, 1, tt)
	want1 := 4*10.0 + (4*1+3*0.5+10)*8 + 7*0.5
	if math.Abs(got1-want1) > 1e-12 {
		t.Fatalf("single-card DFTLevelTime = %g, want %g", got1, want1)
	}
}

func TestOptimizeDFTShrinksBSWithCards(t *testing.T) {
	// Table V: multi-card prototypes choose smaller bs than the single card,
	// because only giant steps parallelize.
	card := hw.HydraCard()
	s := hw.PaperScheme()
	com := hw.HydraNetwork().IntraServer.Transfer(float64(s.CiphertextBytes(24)))
	for _, logSlots := range []int{12, 13, 14, 15} {
		tS := OpTimesFor(card, s, 24, 0)
		tM := OpTimesFor(card, s, 24, com)
		pS, _, err := OptimizeDFT(logSlots, 3, 1, tS)
		if err != nil {
			t.Fatal(err)
		}
		pM, _, err := OptimizeDFT(logSlots, 3, 8, tM)
		if err != nil {
			t.Fatal(err)
		}
		pL, _, err := OptimizeDFT(logSlots, 3, 64, tM)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(xs []int) int {
			s := 0
			for _, x := range xs {
				s += x
			}
			return s
		}
		if sum(pM.BS) > sum(pS.BS) {
			t.Fatalf("logSlots=%d: 8-card bs %v should not exceed single-card bs %v", logSlots, pM.BS, pS.BS)
		}
		if sum(pL.BS) > sum(pM.BS) {
			t.Fatalf("logSlots=%d: 64-card bs %v should not exceed 8-card bs %v", logSlots, pL.BS, pM.BS)
		}
		for _, p := range []DFTParams{pS, pM, pL} {
			if err := p.Validate(logSlots); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestOptimizeDFTErrors(t *testing.T) {
	tt := OpTimes{Rot: 1, PMult: 1, HAdd: 1, Com: 1}
	if _, _, err := OptimizeDFT(3, 3, 1, tt); err == nil {
		t.Fatal("expected error for too few slot bits")
	}
	if _, _, err := OptimizeDFT(30, 3, 1, tt); err == nil {
		t.Fatal("expected error for slots exceeding the radix range")
	}
}

func TestBootstrapEmission(t *testing.T) {
	for _, cards := range []int{1, 8} {
		ctx, b := newCtx(cards)
		com := 0.0
		if cards > 1 {
			com = hw.HydraNetwork().IntraServer.Transfer(ctx.CtBytes())
		}
		opts := DefaultBootstrapOptions(ctx.Scheme, cards, OpTimesFor(hw.HydraCard(), ctx.Scheme, 25, com))
		b.Step("Boot")
		if err := ctx.emitBootstrap(opts, "Boot"); err != nil {
			t.Fatal(err)
		}
		res := runOn(t, b, sim.HydraConfig())
		if res.Makespan <= 0 {
			t.Fatalf("cards=%d: empty bootstrap", cards)
		}
		if res.OpTotals.Get(fheop.Rotation) == 0 || res.OpTotals.Get(fheop.CMult) == 0 {
			t.Fatalf("cards=%d: bootstrap missing rotations or CMults: %v", cards, res.OpTotals)
		}
	}
}

func TestBootstrapBatchModes(t *testing.T) {
	scheme := hw.PaperScheme()
	opts := DefaultBootstrapOptions(scheme, 1, OpTimesFor(hw.HydraCard(), scheme, 25, 0))

	// Many ciphertexts, few cards: whole bootstraps stay local.
	ctx, b := newCtx(8)
	if err := ctx.BootstrapBatch(32, opts, OpTimesFor(hw.HydraCard(), scheme, 25, 0), "Boot"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(b.Build(), sim.HydraConfig()); err != nil {
		t.Fatal(err)
	}

	// Few ciphertexts, many cards: split bootstraps.
	ctx2, b2 := newCtx(16)
	if err := ctx2.BootstrapBatch(2, opts, OpTimesFor(hw.HydraCard(), scheme, 25, 0), "Boot"); err != nil {
		t.Fatal(err)
	}
	p := b2.Build()
	if _, err := sim.Run(p, sim.HydraConfig()); err != nil {
		t.Fatal(err)
	}
	if p.TotalBytes() == 0 {
		t.Fatal("split bootstraps should communicate")
	}
}

func TestBootstrapScalesWithCards(t *testing.T) {
	scheme := hw.PaperScheme()
	mk := func(cards, cts int) float64 {
		ctx, b := newCtx(cards)
		com := 0.0
		if cards > 1 {
			com = hw.HydraNetwork().IntraServer.Transfer(float64(scheme.CiphertextBytes(25)))
		}
		opts := DefaultBootstrapOptions(scheme, cards, OpTimesFor(hw.HydraCard(), scheme, 25, com))
		if err := ctx.BootstrapBatch(cts, opts, OpTimesFor(hw.HydraCard(), scheme, 25, com), "Boot"); err != nil {
			t.Fatal(err)
		}
		return runOn(t, b, sim.HydraConfig()).Makespan
	}
	t1 := mk(1, 16)
	t8 := mk(8, 16)
	if speedup := t1 / t8; speedup < 5 || speedup > 8.5 {
		t.Fatalf("8-card bootstrap speedup %.2f outside [5,8.5] (Fig. 6: Boot > 5×)", speedup)
	}
}

func TestBootstrapCountsConsistency(t *testing.T) {
	scheme := hw.PaperScheme()
	opts := DefaultBootstrapOptions(scheme, 1, OpTimesFor(hw.HydraCard(), scheme, 25, 0))
	counts := BootstrapCounts(opts)

	// The analytic counts should match the emitted single-card program.
	ctx, b := newCtx(1)
	b.Step("Boot")
	if err := ctx.emitBootstrap(opts, "Boot"); err != nil {
		t.Fatal(err)
	}
	emitted := b.Build().TotalOps()
	for _, op := range []fheop.Op{fheop.Rotation, fheop.PMult, fheop.CMult} {
		a, e := counts.Get(op), emitted.Get(op)
		diff := math.Abs(float64(a - e))
		if diff > 0.25*math.Max(float64(a), float64(e)) {
			t.Fatalf("%v: analytic %d vs emitted %d differ by more than 25%%", op, a, e)
		}
	}
}

func TestPerCardShare(t *testing.T) {
	total := 0
	for i := 0; i < 8; i++ {
		total += perCardShare(100, 8, i)
	}
	if total != 100 {
		t.Fatalf("shares sum to %d", total)
	}
	if perCardShare(3, 8, 0) != 1 || perCardShare(3, 8, 7) != 0 {
		t.Fatal("remainder should go to the lowest cards")
	}
}

func TestMappingOpConservationProperty(t *testing.T) {
	// Unit counts are conserved across card counts for every distribution
	// strategy, and programs always simulate without deadlock.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(500)
		cts := 1 + rng.Intn(32)
		cards := 1 << rng.Intn(5)
		ctx, b := newCtx(cards)
		var err error
		switch rng.Intn(3) {
		case 0:
			err = ctx.DistributeBroadcast(units, ConvBNUnit, cts, "x")
		case 1:
			gatherRebroadcast(ctx, units, PoolUnit, cts, "x")
		default:
			err = ctx.DistributeBroadcast(units, PCMMUnit, cts, "x")
		}
		if err != nil {
			return false
		}
		p := b.Build()
		if _, err := sim.Run(p, sim.HydraConfig()); err != nil {
			return false
		}
		// Rotations come only from the per-unit recipes, so the total is an
		// exact multiple of the unit count on every card-count split.
		return p.TotalOps().Get(fheop.Rotation)%units == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
