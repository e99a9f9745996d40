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
// while the row is out, and so does the header that holds a set of rows, so
// giving rows back and taking them again allocates nothing once warm.
func TestPutRowsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	if poisonRows {
		t.Skip("the poisonpool build never hands a header out again")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := testRing(t, 16, 3)
	rows := r.GetRows(4)
	r.PutRows(rows...)
	rows = r.GetRows(4)
	if allocs := testing.AllocsPerRun(100, func() { r.PutRows(rows...); rows = r.GetRows(4) }); allocs != 0 {
		t.Errorf("a warm put and take of %d rows makes %.0f allocations, want 0", len(rows), allocs)
	}
}

// TestPutRowsClearsHeader: PutRows keeps no row alive through the header it
// was handed, and a header it gave back is handed out again with nil rows
// before GetRows fills it.
func TestPutRowsClearsHeader(t *testing.T) {
	r := testRing(t, 16, 3)
	rows := r.GetRows(3)
	r.PutRows(rows...)
	for i, row := range rows {
		if row != nil {
			t.Fatalf("row %d of a given-back header is still set", i)
		}
	}
	for i, row := range r.GetRows(3) {
		if len(row) != r.N {
			t.Fatalf("GetRows row %d has length %d, want %d", i, len(row), r.N)
		}
	}
}

// TestPoisonedHeaderNeverReturns: built with the poisonpool tag, a header
// given back is never handed out again, so a holder that reads it after
// PutRows panics on a nil row instead of reading another taker's rows.
func TestPoisonedHeaderNeverReturns(t *testing.T) {
	if !poisonRows {
		t.Skip("needs -tags poisonpool")
	}
	r := testRing(t, 16, 3)
	for range 8 {
		rows := r.GetRows(2)
		r.PutRows(rows...)
		if next := r.GetRows(2); &next[0] == &rows[0] {
			t.Fatal("GetRows handed out a header that was given back")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("reading a given-back header did not panic")
				}
			}()
			_ = rows[0][0]
		}()
	}
}

// TestForEachLimbWarmAllocatesNothing: a parallel call recycles the state it
// shares with its helpers, so with fn built beforehand a warm call allocates
// nothing.
func TestForEachLimbWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	old := MaxWorkers()
	SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	var count atomic.Int64
	fn := func(int) { count.Add(1) }
	if allocs := testing.AllocsPerRun(100, func() { ForEachLimb(8, fn) }); allocs != 0 {
		t.Errorf("a warm parallel ForEachLimb makes %.0f allocations, want 0", allocs)
	}
	if got := count.Load(); got != 101*8 {
		t.Fatalf("ran %d limbs, want %d", got, 101*8)
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
