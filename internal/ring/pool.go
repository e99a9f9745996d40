package ring

// Limb-parallel execution layer.
//
// Hydra's compute units process independent RNS limbs on parallel lanes; the
// software substrate mirrors that with a single package-level worker pool
// that fans per-limb work out across cores. The pool is bounded globally —
// one shared slot budget for every Ring, Evaluator and cluster card — so
// nested parallelism (a cluster of goroutine-cards each running limb-parallel
// evaluator ops) degrades to inline execution instead of oversubscribing the
// machine or deadlocking.
//
// Design rules that make the layer safe and bit-deterministic:
//
//   - Slot acquisition never blocks: when no slot is free the caller runs the
//     work inline. The calling goroutine always participates, so a worker
//     that itself calls ForEachLimb (nesting) can always make progress.
//   - Work items are independent limbs writing disjoint rows, so scheduling
//     order cannot change results: parallel and serial execution are
//     bit-identical (the differential harness in internal/ckks asserts this).
//   - Panic checks in callers stay outside the parallel region, and a panic
//     raised by fn on a helper goroutine is re-raised on the caller once
//     every helper has returned, so a recover around ForEachLimb sees it as
//     it would in serial mode instead of the process dying.
//
// Serial mode for deterministic debugging: run with GOMAXPROCS=1, or call
// SetSerial(true) / SetMaxWorkers(1) at runtime.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	// serialMode forces inline execution of all limb work.
	serialMode atomic.Bool
	// extraSlots holds a chan struct{} whose capacity is the number of
	// helper goroutines (beyond callers) allowed to run limb work at once.
	extraSlots atomic.Value
)

func init() {
	SetMaxWorkers(runtime.GOMAXPROCS(0))
}

// SetMaxWorkers bounds the global pool to n concurrent workers (the caller
// counts as one, so n-1 helper slots are kept). n < 1 is treated as 1,
// which is equivalent to serial execution.
func SetMaxWorkers(n int) {
	if n < 1 {
		n = 1
	}
	extraSlots.Store(make(chan struct{}, n-1))
}

// SetSerial toggles forced-serial execution (deterministic debugging, and
// the reference arm of the parallel-vs-serial differential tests).
func SetSerial(v bool) { serialMode.Store(v) }

// Serial reports whether forced-serial mode is on.
func Serial() bool { return serialMode.Load() }

// MaxWorkers returns the current global worker bound (callers + helpers).
func MaxWorkers() int { return cap(extraSlots.Load().(chan struct{})) + 1 }

// ForEachLimb runs fn(0) … fn(n-1), fanning the calls out across the global
// worker pool when parallelism is enabled and slots are free. fn invocations
// must be independent (each limb owns its rows); ForEachLimb returns only
// after every invocation has completed. The set of executed calls — and, for
// disjoint writes, the resulting memory — is identical in serial and
// parallel mode. If fn panics on a helper goroutine, the first such panic is
// re-raised on the caller after all helpers have finished (the limbs not yet
// claimed still run, as they are independent).
func ForEachLimb(n int, fn func(i int)) {
	slots, _ := extraSlots.Load().(chan struct{})
	if n <= 1 || serialMode.Load() || cap(slots) == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// One heap object for everything the helpers share with the caller.
	var st struct {
		next  atomic.Int64 // next unclaimed limb
		wg    sync.WaitGroup
		once  sync.Once
		panic any // first panic raised by fn on a helper
	}
	run := func() {
		for {
			i := st.next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
spawn:
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case slots <- struct{}{}:
			st.wg.Add(1)
			//lint:allow rawgo this IS the bounded pool: the spawn is gated by a slot acquired above
			go func() {
				defer func() {
					<-slots
					if r := recover(); r != nil {
						st.once.Do(func() { st.panic = r })
					}
					st.wg.Done()
				}()
				run()
			}()
		default:
			break spawn // pool saturated: remaining limbs run inline below
		}
	}
	// The caller always participates; its own panic unwinds past the helpers,
	// so they are waited for either way and never outlive the call.
	defer func() {
		st.wg.Wait()
		if st.panic != nil {
			panic(st.panic)
		}
	}()
	run()
}

// RunTasks runs the given functions, possibly concurrently, bounded by the
// same global pool, and returns when all have finished. It is the
// coarse-grained sibling of ForEachLimb, used for independent ciphertext-
// level work (BSGS giant steps, the bootstrapping transform fan-out).
func RunTasks(fns ...func()) {
	ForEachLimb(len(fns), func(i int) { fns[i]() })
}
