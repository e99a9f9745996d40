package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "full" or "smoke"
	outDir   string
	// spoil is a test hook: the timed op with this index has its output
	// spoiled before the check, so the check must count it as failed; -1 for
	// none.
	spoil int
}

func (c config) smoke() bool { return c.scale == "smoke" }

// A workload is one closed-loop client: set-up, then one op at a time.
type workload interface {
	// setup builds everything the ops reuse: parameters, keys, compiled
	// programs, plans, priced shapes, arrival streams.
	setup(b *bench) error
	// warmups is how many warm-up calls close set-up: a fixed number, enough
	// for set-up to last half a second at full scale (PR 12's 26 ms sim-fleet
	// set-up read 0.77x from one set of runs to the next), and fixed so that
	// work a later change moves into set-up adds to setup_s.
	warmups() int
	// warm runs warm-up i (an op for most workloads, checked like one).
	warm(b *bench, i int) error
	// op draws the inputs of one op, runs it through b.segment, and checks
	// every output. A returned error is a failed op.
	op(b *bench) error
	// layers adds the per-layer metrics of a traced run to b.m.
	layers(b *bench) error
	// sensitivity is the share of the reference kernel's slowdown that the
	// workload's own time shows: the slope of log op time on log reading over
	// a five-minute log on this box (bench/README.md has the logs). The
	// two-thread limb arithmetic of he-* and the simulator show about 0.7 of
	// it, the single-thread scheduler all of it.
	sensitivity() float64
}

type segSample struct {
	raw, ref       float64 // ms
	before, after  float64 // the reference readings around it, ms
	alloc, mallocs uint64
}

type opSample struct {
	segs   []segSample
	traced bool
}

func (o opSample) raw() float64 {
	t := 0.0
	for _, s := range o.segs {
		t += s.raw
	}
	return t
}

type bench struct {
	cfg  config
	rng  *rand.Rand
	born time.Time // when the run began, see lastStart

	ref     *refKernel
	refs    []float64 // every reference reading of the run, ms
	lastRef float64
	gamma   float64 // the workload's sensitivity

	tr  *tracer // the run's tracer; nil in an untraced run
	cur *tracer // tr on a traced op, nil otherwise

	opIndex int
	seg     []segSample

	m     map[string]float64 // every metric measured, by name
	notes map[string]any     // provenance extras a workload wants in the result file
}

func newBench(cfg config) *bench {
	b := &bench{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		born:  time.Now(),
		ref:   newRefKernel(),
		m:     map[string]float64{},
		notes: map[string]any{},
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	b.ref.read() // page the kernel in
	return b
}

// factor turns a wall time into a referenced one, given the readings around
// it: (refMS / their mean) to the power of the workload's sensitivity.
func (b *bench) factor(before, after float64) float64 {
	return math.Pow(refMS/((before+after)/2), b.gamma)
}

func (b *bench) readRef() float64 {
	b.lastRef = b.ref.read()
	b.refs = append(b.refs, b.lastRef)
	return b.lastRef
}

// readRef3 is the median of three readings, for the two ends of set-up, where
// one reading stands for seconds of work.
func (b *bench) readRef3() float64 {
	v := []float64{b.readRef(), b.readRef(), b.readRef()}
	b.lastRef = median(v)
	return b.lastRef
}

// segment times fn between two reference readings. The reading before it is
// the one that closed the previous segment (or that the harness took before
// the op); only a check lies in between.
func (b *bench) segment(name string, fn func()) {
	before := b.lastRef
	mark := b.cur.mark()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := b.cur.begin(name)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	b.cur.end(id)
	runtime.ReadMemStats(&m1)
	after := b.readRef()
	factor := b.factor(before, after)
	b.cur.setFactor(mark, factor)
	raw := float64(wall.Nanoseconds()) / 1e6
	b.seg = append(b.seg, segSample{raw: raw, ref: raw * factor, before: before, after: after,
		alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs})
}

// span records fn as a child of the enclosing span on a traced op and just
// calls it otherwise.
func (b *bench) span(name string, fn func()) {
	id := b.cur.begin(name)
	fn()
	b.cur.end(id)
}

// spoiled reports whether the current op is the one the test hook spoils.
func (b *bench) spoiled() bool { return b.opIndex >= 0 && b.opIndex == b.cfg.spoil }

// unit is the cost of one direct call of fn: the median of up to 20 samples,
// each referenced like an op. Calls shorter than a millisecond are batched so
// that a sample outlasts the clock; slow calls get fewer samples (at least 3)
// so that a traced run stays inside its time.
func (b *bench) unit(fn func()) float64 {
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	inner := 1
	if one < time.Millisecond {
		inner = int(time.Millisecond/(one+1)) + 1
		if inner > 2000 {
			inner = 2000
		}
	}
	n := 20
	if budget := 300 * time.Millisecond; time.Duration(n*inner)*one > budget {
		n = int(budget / (time.Duration(inner)*one + 1))
		if n < 3 {
			n = 3
		}
	}
	v := make([]float64, 0, n)
	b.readRef()
	for i := 0; i < n; i++ {
		before := b.lastRef
		t0 := time.Now()
		for k := 0; k < inner; k++ {
			fn()
		}
		wall := float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(inner)
		after := b.readRef()
		v = append(v, wall*b.factor(before, after))
	}
	return median(v)
}

// mallocsPer counts heap allocations of one call of fn, averaged over n.
func mallocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	fn()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// runOp runs f as op i (warm-ups count down from -1), turning a panic in a
// layer into a failed op.
func (b *bench) runOp(i int, traced bool, f func(*bench) error) (s opSample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic recovered: %v", r)
		}
	}()
	b.seg = nil
	b.opIndex = i
	b.cur = nil
	if traced {
		b.cur = b.tr
	}
	b.cur.beginOp(i)
	err = f(b)
	return opSample{segs: b.seg, traced: traced}, err
}

// lastStart is how long after the run began optional work may still start: a
// second or third set-up, a second op. A run is stopped after 180 s; on a
// machine slow enough to get here (a fresh VM faulting every page in from its
// host was 30 times slower than a warm one), the run ends with the set-ups
// and the one op it has.
const lastStart = 90 * time.Second

type runResult struct {
	attempted, failed int
	firstFailure      string
	ops               []opSample
}

func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRuns is how many times set-up is done in a run, each time on a fresh
// workload; setup_s is the median. The first, in a process that has touched no
// memory yet, is the slowest and by far the least steady, so one set-up a run
// spread 5 to 31 % from run to run.
const setupRuns = 3

// run drives one workload: set-up and warm-up (setupRuns times, the last is
// kept), the timed closed loop, the memory readings, and on a traced run the
// per-layer section.
func (b *bench) run(fresh func() workload) (*runResult, error) {
	res := &runResult{}
	fail := func(what string, err error) {
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf("%s: %v", what, err)
		}
	}

	// Set-up, referenced by readings on both sides.
	var w workload
	var setups []float64
	for n := 0; n < setupRuns && (n == 0 || time.Since(b.born) < lastStart); n++ {
		w = nil
		runtime.GC() // the previous set-up's state, outside the timing
		w = fresh()
		b.gamma = w.sensitivity()
		before := b.readRef3()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.readRef()                // the reading before the first warm-up op
		segRaw, segRef := 0.0, 0.0 // ms inside the warm-up ops' segments
		for i := 0; i < w.warmups(); i++ {
			res.attempted++
			o, err := b.runOp(-1-i, false, func(b *bench) error { return w.warm(b, i) })
			if err != nil {
				fail(fmt.Sprintf("warm-up %d", i), err)
			}
			for _, sg := range o.segs {
				segRaw += sg.raw
				segRef += sg.ref
			}
		}
		runtime.GC()
		setup := time.Since(t0)
		after := b.readRef3()
		// Warm-up ops' segments are referenced by the readings around each,
		// like a timed op's; the rest by the readings around the set-up.
		setups = append(setups, ((setup.Seconds()*1e3-segRaw)*b.factor(before, after)+segRef)/1e3)
	}
	b.m["setup_s"] = median(setups)
	b.m["bench.setup_first_s"] = setups[0]

	// The timed loop: one op at a time, whole ops only, at least two (unless
	// the first ends after lastStart), until --seconds have passed. On a traced
	// run every second op records spans.
	cpu0 := cpuMS()
	start := time.Now()
	timed := 0
	for ; timed < 2 || time.Since(start).Seconds() < b.cfg.seconds; timed++ {
		if timed == 1 && time.Since(b.born) > lastStart {
			break
		}
		res.attempted++
		s, err := b.runOp(timed, b.cfg.trace && timed%2 == 1, w.op)
		if err != nil {
			fail(fmt.Sprintf("op %d", timed), err)
			continue
		}
		res.ops = append(res.ops, s)
	}
	b.m["bench.cpu_ms_per_op"] = (cpuMS() - cpu0) / float64(timed)

	// Resident memory with the workload's state held.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	b.m["resident_mb"] = float64(ms.HeapAlloc) / 1e6

	if len(res.ops) == 0 {
		return res, nil
	}
	b.summarise(res.ops)
	if b.cfg.trace {
		if err := w.layers(b); err != nil {
			return nil, fmt.Errorf("per-layer section: %w", err)
		}
	}
	b.m["bench.peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// opMS is the gated timing: the sum over the op's segments of the median,
// across ops, of that segment's referenced time. With one segment it is the
// median op; for sim-fleet it is the sum of per-cell medians.
func opMS(ops []opSample) float64 {
	if len(ops) == 0 {
		return 0
	}
	total := 0.0
	for s := range ops[0].segs {
		v := make([]float64, 0, len(ops))
		for _, o := range ops {
			if s < len(o.segs) {
				v = append(v, o.segs[s].ref)
			}
		}
		total += median(v)
	}
	return total
}

func (b *bench) summarise(ops []opSample) {
	n := float64(len(ops))
	var alloc, mallocs uint64
	raws := make([]float64, 0, len(ops))
	var traced, untraced []opSample
	for _, o := range ops {
		raws = append(raws, o.raw())
		for _, s := range o.segs {
			alloc += s.alloc
			mallocs += s.mallocs
		}
		if o.traced {
			traced = append(traced, o)
		} else {
			untraced = append(untraced, o)
		}
	}
	b.m["op_ms"] = opMS(ops)
	b.m["alloc_mb_per_op"] = float64(alloc) / n / 1e6
	b.m["bench.mallocs_per_op"] = float64(mallocs) / n
	b.m["bench.op_raw_ms_p50"] = median(raws)
	b.m["bench.op_raw_ms_tail"], b.m["bench.op_raw_tail_pct"] = tail(raws)
	b.m["bench.samples"] = n
	b.m["bench.ref_ms_p50"] = median(b.refs)
	b.m["bench.ref_spread_pct"] = 100 * spread(b.refs)
	if len(traced) > 0 && len(untraced) > 0 {
		b.m["trace.overhead_pct"] = 100 * (opMS(traced)/opMS(untraced) - 1)
	}
}
