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

// TestRowPool: GetRows hands out whole rows, a recycled row as its last
// holder left it, and PutRows drops a row of another length.
func TestRowPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool cache
	r := testRing(t, 16, 3)
	empty := func() {
		runtime.GC()
		runtime.GC() // two collections empty the pool
	}

	// Whole rows, whether made on one backing or recycled.
	empty()
	rows := r.GetRows(5)
	for i, row := range rows {
		row[0] = uint64(i + 1)
	}
	r.PutRows(rows...)
	for _, row := range r.GetRows(5) {
		if len(row) != r.N || cap(row) != r.N {
			t.Fatalf("row of length %d, capacity %d; want %d", len(row), cap(row), r.N)
		}
		if row[0] == 0 {
			t.Fatal("GetRows cleared a recycled row")
		}
	}

	// A row of another length is dropped; a longer backing is cut to N.
	empty()
	r.PutRows(make([]uint64, 3))
	if row := r.GetRows(1)[0]; len(row) != r.N {
		t.Fatalf("PutRows pooled a row of length %d", len(row))
	}
	r.PutRows(r.NewPoly(1).Coeffs[0])
	if row := r.GetRows(1)[0]; len(row) != r.N || cap(row) != r.N {
		t.Fatalf("recycled a row of length %d, capacity %d; want %d", len(row), cap(row), r.N)
	}
}

// TestPutRowsAllocatesNothing: a row travels in a box that waits in the pool
// while the row is out, so giving rows back allocates nothing once warm.
func TestPutRowsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := testRing(t, 16, 3)
	rows := r.GetRows(4)
	r.PutRows(rows...)
	take := func() {
		for i := range rows {
			rows[i] = r.rows.row()
		}
	}
	take()
	if allocs := testing.AllocsPerRun(100, func() { r.PutRows(rows...); take() }); allocs != 0 {
		t.Errorf("a warm put and take of %d rows makes %.0f allocations, want 0", len(rows), allocs)
	}
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
