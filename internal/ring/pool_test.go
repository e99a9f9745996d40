package ring

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachLimbCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 129} {
		hits := make([]int32, n)
		ForEachLimb(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, h)
			}
		}
	}
}

func TestForEachLimbSerialMode(t *testing.T) {
	SetSerial(true)
	defer SetSerial(false)
	if !Serial() {
		t.Fatal("Serial() should report true")
	}
	// In serial mode execution must be in-order on the calling goroutine.
	var order []int
	ForEachLimb(8, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial mode ran out of order: %v", order)
		}
	}
}

func TestForEachLimbNestedDoesNotDeadlock(t *testing.T) {
	old := MaxWorkers()
	SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	var count atomic.Int64
	// Outer fan-out over "cards", each nesting limb-level fan-out, nested a
	// third level deep — saturating the 2-worker pool at every level.
	ForEachLimb(4, func(i int) {
		ForEachLimb(4, func(j int) {
			ForEachLimb(4, func(k int) { count.Add(1) })
		})
	})
	if count.Load() != 64 {
		t.Fatalf("nested execution ran %d of 64 items", count.Load())
	}
}

func TestForEachLimbConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	var count atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForEachLimb(32, func(i int) { count.Add(1) })
		}()
	}
	wg.Wait()
	if count.Load() != 8*32 {
		t.Fatalf("concurrent callers ran %d of %d items", count.Load(), 8*32)
	}
}

func TestRunTasks(t *testing.T) {
	var a, b, c bool
	RunTasks(func() { a = true }, func() { b = true }, func() { c = true })
	if !a || !b || !c {
		t.Fatal("RunTasks skipped a task")
	}
}

func TestSetMaxWorkersFloor(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	SetMaxWorkers(-3)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers floor: got %d, want 1", MaxWorkers())
	}
	// One worker means the caller runs everything inline.
	var order []int
	ForEachLimb(4, func(i int) { order = append(order, i) })
	if len(order) != 4 {
		t.Fatalf("inline fallback ran %d of 4 items", len(order))
	}
}

func TestScratchAndRowPools(t *testing.T) {
	r := testRing(t, 16, 3)
	p := r.GetScratch(2)
	if p.Level() != 2 {
		t.Fatalf("scratch level %d, want 2", p.Level())
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != 0 {
				t.Fatal("scratch polynomial not zeroed")
			}
			p.Coeffs[i][j] = 0xdead // dirty it for the reuse check
		}
	}
	r.PutScratch(p)
	p2 := r.GetScratch(r.MaxLevel())
	for i := range p2.Coeffs {
		for j := range p2.Coeffs[i] {
			if p2.Coeffs[i][j] != 0 {
				t.Fatal("recycled scratch polynomial not re-zeroed")
			}
		}
	}
	r.PutScratch(p2)

	row := r.GetRow()
	if len(row) != r.N {
		t.Fatalf("row length %d, want %d", len(row), r.N)
	}
	row[0] = 7
	r.PutRow(row)
	row2 := r.GetRow()
	if row2[0] != 0 {
		t.Fatal("recycled row not re-zeroed")
	}
	r.PutRow(row2)

	// Raw rows are whole rows, whether recycled or made on one backing.
	for _, row := range r.GetRawRows(5) {
		if len(row) != r.N || cap(row) != r.N {
			t.Fatalf("raw row of length %d, capacity %d; want %d", len(row), cap(row), r.N)
		}
	}

	// Foreign buffers (not pool-backed) are rejected, not pooled.
	r.PutScratch(r.NewPoly(1))
	r.PutRow(make([]uint64, 3))
}

// goroutineHeader returns the "goroutine N [running]:" line of the calling
// goroutine's stack, which identifies it for the duration of a test.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

// TestForEachLimbHelperPanicReachesCaller forces a panic onto a pool helper
// goroutine: the caller's own invocation waits until the helper has claimed
// the other limb. The panic must surface on the caller, where a recover can
// see it, and only after the helper has given its slot back.
func TestForEachLimbHelperPanicReachesCaller(t *testing.T) {
	old := MaxWorkers()
	SetMaxWorkers(2)
	defer SetMaxWorkers(old)

	caller := goroutineHeader()
	onHelper := make(chan struct{})
	var got any
	func() {
		defer func() { got = recover() }()
		ForEachLimb(2, func(i int) {
			if goroutineHeader() == caller {
				<-onHelper
				return
			}
			close(onHelper)
			panic("boom on a helper")
		})
	}()
	if got != "boom on a helper" {
		t.Fatalf("recovered %v on the caller, want the helper's panic", got)
	}
	if held := len(extraSlots.Load().(chan struct{})); held != 0 {
		t.Fatalf("%d pool slot(s) still held after a helper panic", held)
	}
}
