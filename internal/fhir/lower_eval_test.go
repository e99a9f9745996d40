package fhir

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
	"hydra/internal/ring"
)

// testEnv is one keyed CKKS context sized for a program pair.
type testEnv struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	eval   *ckks.Evaluator
	dec    *ckks.Decryptor
	encr   *ckks.Encryptor
}

// inputsOf returns p's input values in definition order.
func inputsOf(p *Program) []*Value {
	var ins []*Value
	for _, v := range p.Values {
		if v.Op == OpInput {
			ins = append(ins, v)
		}
	}
	return ins
}

func newTestEnv(t *testing.T, logN, levels int, rots []int, conjugate bool) *testEnv {
	t.Helper()
	params := ckks.TestParameters(logN, levels)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rots, conjugate)
	return &testEnv{
		params: params,
		enc:    ckks.NewEncoder(params),
		eval:   ckks.NewEvaluator(params, rlk, rtks),
		dec:    ckks.NewDecryptor(params, sk),
		encr:   ckks.NewEncryptor(params, pk, 2),
	}
}

func (te *testEnv) encryptAll(t *testing.T, inputs map[string][]complex128, level int) map[string]*ckks.Ciphertext {
	t.Helper()
	out := map[string]*ckks.Ciphertext{}
	for name, vals := range inputs {
		pt, err := te.enc.EncodeAtLevel(vals, te.params.DefaultScale(), level)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = te.encr.Encrypt(pt)
	}
	return out
}

func (te *testEnv) decryptSlots(ct *ckks.Ciphertext) []complex128 {
	return te.enc.Decode(te.dec.Decrypt(ct))
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := math.Hypot(real(a[i]-b[i]), imag(a[i]-b[i])); d > m {
			m = d
		}
	}
	return m
}

func randVec(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// unionRotations collects the rotation keys two compiled variants of one
// source program need between them.
func unionRotations(ps ...*Program) (rots []int, conjugate bool) {
	set := map[int]bool{}
	for _, p := range ps {
		rs, conj := p.Rotations()
		conjugate = conjugate || conj
		for _, r := range rs {
			set[r] = true
		}
	}
	for r := range set {
		rots = append(rots, r)
	}
	return rots, conjugate
}

// runDifferential compiles src both ways, evaluates both on ciphertexts, and
// checks each against the exact plaintext interpretation.
func runDifferential(t *testing.T, src func() *Program, levels int, tol float64) {
	t.Helper()
	opt, err := Compile(src(), Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CompileNaive(src(), levels)
	if err != nil {
		t.Fatal(err)
	}
	rots, conj := unionRotations(opt, naive)
	logN := 5
	for (1 << (logN - 1)) < opt.Slots {
		logN++
	}
	te := newTestEnv(t, logN, levels, rots, conj)
	if te.params.Slots() != opt.Slots {
		t.Fatalf("slot mismatch: params %d, program %d", te.params.Slots(), opt.Slots)
	}

	rng := rand.New(rand.NewSource(7))
	plainIn := map[string][]complex128{}
	for _, in := range inputsOf(opt) {
		plainIn[in.Name] = randVec(rng, opt.Slots)
	}
	want, err := Interpret(src(), plainIn)
	if err != nil {
		t.Fatal(err)
	}

	ctx := EvalContext{Eval: te.eval, Enc: te.enc}
	for name, p := range map[string]*Program{"optimized": opt, "naive": naive} {
		cts := te.encryptAll(t, plainIn, levels)
		out, err := Evaluate(p, ctx, cts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := te.decryptSlots(out)
		if e := maxErr(got, want); e > tol {
			t.Errorf("%s disagrees with the interpreter: max slot error %.3g > %.3g\n%s", name, e, tol, p)
		}
	}
}

func TestEvaluateBSGSDifferential(t *testing.T) {
	runDifferential(t, func() *Program { return buildBSGS(t, 16, 4, 4) }, 3, 1e-4)
}

func TestEvaluateRotSumDifferential(t *testing.T) {
	runDifferential(t, func() *Program {
		b := NewBuilder(16)
		x := b.Input("x")
		b.Output(b.Sum(x, b.Rotate(x, 1), b.Rotate(x, 2), b.Rotate(x, 4), b.Rotate(x, 8)))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}, 2, 1e-5)
}

func TestEvaluateLazyRelinDifferential(t *testing.T) {
	runDifferential(t, func() *Program {
		b := NewBuilder(16)
		x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
		s := b.Sum(b.Mul(x, y), b.Mul(y, z), b.Mul(b.Rotate(x, 1), z))
		b.Output(s)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}, 3, 1e-4)
}

func TestEvaluateMixedDifferential(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		runDifferential(t, func() *Program {
			b := NewBuilder(16)
			x, y := b.Input("x"), b.Input("y")
			a := b.AddConst(b.MulConst(x, 0.5), 0.25)
			c := b.Sub(b.Conjugate(y), b.Neg(b.Rotate(x, 3)))
			m := b.Mul(a, c)
			w := b.MulPlain(b.Rotate(m, 2), b.PlainVec("w", []complex128{
				1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8,
			}))
			b.Output(b.Add(w, b.Mul(a, a)))
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, 4, 1e-3)
	})
	// y = act(W·x) + x: the FHE shape of one convolution, a degree-3
	// activation and the skip connection, through the frontends.
	t.Run("resnet-block", func(t *testing.T) {
		const dim = 16
		rng := rand.New(rand.NewSource(9))
		w := make([][]complex128, dim)
		for i := range w {
			w[i] = make([]complex128, dim)
			for j := range w[i] {
				w[i][j] = complex((rng.Float64()*2-1)/dim, 0)
			}
		}
		lt, err := hefloat.NewLinearTransform(w)
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, func() *Program {
			return buildFrontend(t, dim, func(b *Builder, x *Value) *Value {
				act := b.Horner(b.LinTrans(x, lt, 4, "w"), []float64{0, 0.5, 0.25, -0.125})
				return b.Add(act, x)
			})
		}, 6, 1e-3)
	})
}

// TestEvaluateContractPanicIsError: the evaluator panics on a missing
// rotation or relinearization key and on a constant that does not fit a word
// at the ciphertext's scale; Evaluate hands that back as the failing value's
// error instead of killing the caller (or, for the constant, returning a
// ciphertext of garbage).
func TestEvaluateContractPanicIsError(t *testing.T) {
	const logN, levels = 5, 3
	params := ckks.TestParameters(logN, levels)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, kg.GenPublicKey(sk), 2)
	for name, tc := range map[string]struct {
		body func(b *Builder, x *Value) *Value
		eval *ckks.Evaluator
	}{
		"rotation key missing": {
			func(b *Builder, x *Value) *Value { return b.Rotate(x, 3) },
			ckks.NewEvaluator(params, rlk, kg.GenRotationKeys(sk, []int{1}, false)),
		},
		"relinearization key missing": {
			func(b *Builder, x *Value) *Value { return b.Mul(x, x) },
			ckks.NewEvaluator(params, nil, nil),
		},
		"constant is NaN": {
			func(b *Builder, x *Value) *Value { return b.AddConst(x, math.NaN()) },
			ckks.NewEvaluator(params, nil, nil),
		},
	} {
		p, err := Compile(buildFrontend(t, params.Slots(), tc.body), Options{Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := enc.EncodeAtLevel(make([]complex128, params.Slots()), params.DefaultScale(), levels)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Evaluate(p, EvalContext{Eval: tc.eval, Enc: enc}, map[string]*ckks.Ciphertext{"x": encr.Encrypt(pt)})
		if err == nil || out != nil || !strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: Evaluate returned %v, %v; want the recovered panic as an error", name, out, err)
		}
	}
}

// TestModSwitchCopiesKeptRows: a level drop is a view of the rows it keeps,
// and an output that views an input is copied for the caller, those rows
// and no others. Dropping a 17-limb input to level 2 allocates less than
// 4 × 3 rows (the result itself is 2 × 3), where copying the input whole and
// then truncating it is 34 rows.
func TestModSwitchCopiesKeptRows(t *testing.T) {
	const logN, levels, to = 10, 16, 2
	params := ckks.TestParameters(logN, levels)
	kg := ckks.NewKeyGenerator(params, 1)
	enc := ckks.NewEncoder(params)
	pt, err := enc.EncodeAtLevel(randVec(rand.New(rand.NewSource(3)), params.Slots()), params.DefaultScale(), levels)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*ckks.Ciphertext{"x": ckks.NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), 2).Encrypt(pt)}
	x := &Value{ID: 0, Op: OpInput, Name: "x", Level: levels, Degree: 1}
	drop := &Value{ID: 1, Op: OpModSwitch, Args: []*Value{x}, K: levels - to, Level: to, Degree: 1}
	p := &Program{Slots: params.Slots(), Values: []*Value{x, drop}, Output: drop, Legal: true, InputLevel: levels}
	ctx := EvalContext{Eval: ckks.NewEvaluator(params, nil, nil), Enc: enc}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Evaluate(p, ctx, in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want := in["x"].CopyNew()
	want.DropLevel(levels - to)
	if out.Level() != to || !out.Equal(want) {
		t.Fatalf("modswitch to level %d: got level %d or residues other than the input's kept rows", to, out.Level())
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*(to+1)*8<<logN); got >= bound {
		t.Fatalf("modswitch of a %d-row input to level %d allocates %d B, want < %d", levels+1, to, got, bound)
	}
}

// diagMacProgram compiles one BSGS giant step over diags random diagonals:
// a single DiagMac whose operands are all encoded inside Evaluate. poison is
// added to one slot of the middle diagonal.
func diagMacProgram(t *testing.T, slots, diags, levels int, poison complex128) *Program {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return diagMacProgramOf(t, slots, diags, levels, func(b *Builder, j int) *Plain {
		vals := randVec(rng, slots)
		if j == diags/2 {
			vals[3] += poison
		}
		return b.PlainVec("", vals)
	})
}

// diagMacProgramOf is diagMacProgram over caller-made plaintext operands.
func diagMacProgramOf(t *testing.T, slots, diags, levels int, plain func(b *Builder, j int) *Plain) *Program {
	t.Helper()
	b := NewBuilder(slots)
	x := b.Input("x")
	terms := make([]*Value, diags)
	for j := range terms {
		terms[j] = b.MulPlain(b.Rotate(x, j), plain(b, j))
	}
	b.Output(b.Sum(terms...))
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	if n := countOp(p, OpDiagMac); n != 1 {
		t.Fatalf("%d DiagMacs, want 1\n%s", n, p)
	}
	return p
}

// diagMacEnv keys a context for diagMacProgram and encrypts one input.
func diagMacEnv(t *testing.T, p *Program, logN, levels int) (EvalContext, map[string]*ckks.Ciphertext) {
	t.Helper()
	rots, conj := p.Rotations()
	te := newTestEnv(t, logN, levels, rots, conj)
	x := randVec(rand.New(rand.NewSource(1)), p.Slots)
	return EvalContext{Eval: te.eval, Enc: te.enc}, te.encryptAll(t, map[string][]complex128{"x": x}, levels)
}

// bsgsProgram compiles a bs × gs BSGS product over random diagonals, the
// he-rot shape: one basket shared by gs DiagMacs, each giant step rotated and
// summed. Unlike buildBSGS's, its plaintexts hand out vectors built once, so
// an Evaluate allocates nothing for them.
func bsgsProgram(t *testing.T, slots, bs, gs, levels int) *Program {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	b := NewBuilder(slots)
	x := b.Input("x")
	var acc *Value
	for g := 0; g < gs; g++ {
		var inner *Value
		for j := 0; j < bs; j++ {
			inner = b.accum(inner, b.MulPlain(b.Rotate(x, j), b.PlainVec("", randVec(rng, slots))))
		}
		acc = b.accum(acc, b.Rotate(inner, g*bs))
	}
	b.Output(acc)
	src, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, Options{Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allocPerEvaluate is the heap bytes one Evaluate of p allocates once the
// ring's pools are warm.
func allocPerEvaluate(t *testing.T, p *Program, ctx EvalContext, cts map[string]*ckks.Ciphertext) uint64 {
	t.Helper()
	run := func() {
		if _, err := Evaluate(p, ctx, cts); err != nil {
			t.Fatal(err)
		}
	}
	run()                                            // fill the ring's pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty them mid-measurement
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestEvaluateDiagMacStreamsEncodes: DiagMac encodes its diagonals into
// pooled rows a chunk at a time, so a whole Evaluate — basket, encodes,
// ModDown and result included — allocates less than the sixteen extended
// plaintexts alone would if each were built on the heap. A closed basket's
// rotations live in pooled rows too, and a giant step's rotation and running
// sum add no third poly: an 8 × 8 BSGS allocates no more than the extended
// form of the same program does per call, and that is within a few rows of
// the ciphertexts it must hand out (one per DiagMac, one per giant rotation,
// the rescaled output) plus one automorphism index per rotation.
func TestEvaluateDiagMacStreamsEncodes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	const logN, levels, diags = 10, 6, 16
	row := uint64(8 << logN)
	t.Run("one group", func(t *testing.T) {
		p := diagMacProgram(t, 1<<(logN-1), diags, levels, 0)
		ctx, cts := diagMacEnv(t, p, logN, levels)
		perRun := allocPerEvaluate(t, p, ctx, cts)
		if livePlaintexts := diags * (levels + 2) * row; perRun >= livePlaintexts {
			t.Fatalf("Evaluate allocates %d bytes; %d heap-resident extended plaintexts are %d", perRun, diags, livePlaintexts)
		}
	})
	t.Run("closed basket", func(t *testing.T) {
		const bs, gs = 8, 8
		p := bsgsProgram(t, 1<<(logN-1), bs, gs, levels)
		if countClosed(p) != 1 {
			t.Fatalf("%d closed baskets, want 1\n%s", countClosed(p), p)
		}
		ctx, cts := diagMacEnv(t, p, logN, levels)
		closed := allocPerEvaluate(t, p, ctx, cts)
		for _, v := range p.Values {
			v.Closed = false
		}
		extended := allocPerEvaluate(t, p, ctx, cts)
		// Rows: the DiagMac results and giant rotations, the rescaled output
		// and an automorphism index per rotation, plus a slack of small
		// allocations (maps, row slices, pool refills) that stays below the
		// 7 rows a third poly per giant rotation would add each.
		need := uint64(2*gs-1)*2*(levels+1) + 2*levels + bs - 1 + gs - 1
		const slack = 24
		t.Logf("closed %d B, extended %d B, bound %d B", closed, extended, (need+slack)*row)
		if bound := (need + slack) * row; closed > extended+6*row || max(closed, extended) > bound {
			t.Fatalf("Evaluate allocates %d bytes closed, %d extended; want closed within six rows of extended, both <= %d", closed, extended, bound)
		}
	})
}

// TestEvaluateDiagMacFanOutBitIdentical extends the parallel-vs-serial
// differential to the diagonal-parallel encode: forced-serial, one worker (a
// chunk of 4 diagonals) and eight workers (one chunk of 16, encodes racing
// for the limb pool) must produce the same ciphertext residue for residue —
// for a one-group DiagMac (extended) and a 4 × 4 BSGS whose basket closes
// (Q-row encodes, closed rotations, sweep-closed folds).
func TestEvaluateDiagMacFanOutBitIdentical(t *testing.T) {
	const logN, levels = 8, 3
	for name, p := range map[string]*Program{
		"extended": diagMacProgram(t, 1<<(logN-1), 16, levels, 0),
		"closed":   bsgsProgram(t, 1<<(logN-1), 4, 4, levels),
	} {
		if closed := countClosed(p) == 1; closed != (name == "closed") {
			t.Fatalf("%s: basket closed %v\n%s", name, closed, p)
		}
		ctx, cts := diagMacEnv(t, p, logN, levels)
		func() {
			defer ring.SetMaxWorkers(ring.MaxWorkers())
			defer ring.SetSerial(ring.Serial())
			ring.SetSerial(true)
			want, err := Evaluate(p, ctx, cts)
			if err != nil {
				t.Fatal(err)
			}
			ring.SetSerial(false)
			for _, workers := range []int{1, 2, 8} {
				ring.SetMaxWorkers(workers)
				got, err := Evaluate(p, ctx, cts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s, %d workers: ciphertext differs from the forced-serial run", name, workers)
				}
			}
		}()
	}
}

// TestEvaluatePoisonedPoolChangesNothing: DiagMac encodes its diagonals over
// rows from the ring's row pool, which come as their last holder left them.
// Each program runs once on an emptied pool and once after rows of all ones
// were put into it; the two outputs must be equal residue for residue.
func TestEvaluatePoisonedPoolChangesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	const logN, levels = 8, 3
	for name, p := range map[string]*Program{
		"extended": diagMacProgram(t, 1<<(logN-1), 16, levels, 0),
		"closed":   bsgsProgram(t, 1<<(logN-1), 4, 4, levels),
	} {
		ctx, cts := diagMacEnv(t, p, logN, levels)
		r := ctx.Eval.Params().RingQP()
		runtime.GC()
		runtime.GC() // two collections empty the pool
		want, err := Evaluate(p, ctx, cts)
		if err != nil {
			t.Fatal(err)
		}
		for range 64 * len(r.Moduli) {
			row := make([]uint64, r.N)
			for j := range row {
				row[j] = ^uint64(0)
			}
			r.PutRows(row)
		}
		got, err := Evaluate(p, ctx, cts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: output differs after the pool was poisoned", name)
		}
	}
}

// TestEvaluateWorkerPanicIsError: DiagMac runs tenant Plain.Values closures on
// limb-pool helper goroutines, out of reach of Evaluate's recover unless the
// pool hands a helper's panic back to its caller. Each closure here waits
// until a second one has started — so one of them is on a helper — and then
// panics; Evaluate must return the error, and the pool must still work.
func TestEvaluateWorkerPanicIsError(t *testing.T) {
	const logN, levels, diags = 6, 3, 16
	slots := 1 << (logN - 1)
	good := diagMacProgram(t, slots, diags, levels, 0)
	ctx, cts := diagMacEnv(t, good, logN, levels)
	defer ring.SetMaxWorkers(ring.MaxWorkers())
	for _, workers := range []int{2, 4} {
		ring.SetMaxWorkers(workers)
		var entered atomic.Int32
		two := make(chan struct{})
		bad := diagMacProgramOf(t, slots, diags, levels, func(b *Builder, j int) *Plain {
			return b.Plain("", func(int) ([]complex128, error) {
				if entered.Add(1) == 2 {
					close(two)
				}
				<-two
				panic("tenant closure blew up")
			})
		})
		out, err := Evaluate(bad, ctx, cts)
		if err == nil || out != nil || !strings.Contains(err.Error(), "tenant closure blew up") {
			t.Errorf("%d workers: Evaluate returned %v, %v; want the recovered panic as an error", workers, out, err)
		}
		if _, err := Evaluate(good, ctx, cts); err != nil {
			t.Errorf("%d workers: Evaluate after a worker panic: %v", workers, err)
		}
	}
}

// TestEvaluateRejectsNonFinitePlain: a NaN or infinite plaintext slot is an
// error from Evaluate on both encode routes (MulPlain and the DiagMac
// fan-out) — it used to panic inside math/big, or encode as zero.
func TestEvaluateRejectsNonFinitePlain(t *testing.T) {
	const logN, levels = 6, 3
	slots := 1 << (logN - 1)
	for _, poison := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1))} {
		b := NewBuilder(slots)
		b.Output(b.MulPlain(b.Input("x"), b.PlainVec("", []complex128{1, poison})))
		src, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		single, err := Compile(src, Options{Levels: levels})
		if err != nil || countOp(single, OpMulPlain) != 1 {
			t.Fatalf("one MulPlain expected: %v\n%s", err, single)
		}
		for name, p := range map[string]*Program{"MulPlain": single, "DiagMac": diagMacProgram(t, slots, 16, levels, poison)} {
			ctx, cts := diagMacEnv(t, p, logN, levels)
			if out, err := Evaluate(p, ctx, cts); err == nil || out != nil {
				t.Errorf("%s with slot %v: Evaluate returned %v, %v; want an error", name, poison, out, err)
			}
		}
	}
}
