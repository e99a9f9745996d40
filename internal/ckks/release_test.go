package ckks

import (
	"math"
	"runtime"
	"testing"

	"hydra/internal/ring"
)

// TestPoisonedPoolChangesNothing: every row an op takes from the row pool,
// for its result or its scratch, comes as its last holder left it, so the op
// must write each word before reading it. Each op runs once on an emptied
// pool and once after rows of all ones were put into it; the two results
// must be equal bit for bit. The limbs run serially on one P, so every take
// meets the poisoned pool cache. Built with the poisonpool tag, the pool also
// scribbles fresh random words over every row given back, so a row an op
// gives back and takes again within one call differs between the runs too.
func TestPoisonedPoolChangesNothing(t *testing.T) {
	ring.SetSerial(true)
	defer ring.SetSerial(false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rots := []int{1, 3}
	tc := newTestContext(t, 6, 4, rots)
	ev, r := tc.eval, tc.params.RingQP()
	encrypt := func(seed int64, lvl int) *Ciphertext {
		pt, err := tc.enc.EncodeAtLevel(randomComplex(tc.params.Slots(), seed), tc.params.DefaultScale(), lvl)
		if err != nil {
			t.Fatal(err)
		}
		return tc.encr.Encrypt(pt)
	}
	a, b, low := encrypt(1, 4), encrypt(2, 4), encrypt(3, 0)
	pt, err := tc.enc.EncodeAtLevel(randomComplex(tc.params.Slots(), 4), tc.params.DefaultScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ptExt, err := tc.enc.EncodeExtAtLevel(randomComplex(tc.params.Slots(), 5), tc.params.DefaultScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	empty := func() {
		runtime.GC()
		runtime.GC() // two collections empty the pool
	}
	poison := func() {
		for range 64 * len(r.Moduli) {
			row := make([]uint64, r.N)
			for j := range row {
				row[j] = ^uint64(0)
			}
			r.PutRows(row)
		}
	}
	if !raceEnabled { // the race detector drops pool entries at random
		empty()
		poison()
		if row := r.GetRows(1)[0]; row[0] == 0 {
			t.Fatal("GetRows cleared a recycled row")
		}
	}
	cts := func(cs ...*Ciphertext) []*ring.Poly {
		var ps []*ring.Poly
		for _, c := range cs {
			ps = append(ps, c.C0, c.C1)
		}
		return ps
	}
	hoisted := func(m map[int]*Ciphertext) []*ring.Poly { return cts(m[0], m[1], m[3]) }
	exts := func(m map[int]*ExtCiphertext) []*ring.Poly {
		return cts(ev.ModDownExt(m[0]), ev.ModDownExt(m[1]), ev.ModDownExt(m[3]))
	}
	for _, op := range []struct {
		name string
		fn   func() []*ring.Poly
	}{
		{"Encrypt", func() []*ring.Poly { return cts(NewEncryptor(tc.params, tc.pk, 7).Encrypt(pt)) }},
		{"Decode", func() []*ring.Poly {
			var words []uint64
			for _, v := range tc.enc.Decode(pt) {
				words = append(words, math.Float64bits(real(v)), math.Float64bits(imag(v)))
			}
			return []*ring.Poly{{Coeffs: [][]uint64{words}}}
		}},
		{"Add", func() []*ring.Poly { return cts(ev.Add(a, b)) }},
		{"Sub", func() []*ring.Poly { return cts(ev.Sub(a, b)) }},
		{"Neg", func() []*ring.Poly { return cts(ev.Neg(a)) }},
		{"AddConst", func() []*ring.Poly { return cts(ev.AddConst(a, -0.5)) }},
		{"MulPlain", func() []*ring.Poly { return cts(ev.MulPlain(a, pt)) }},
		{"MulByConst", func() []*ring.Poly { return cts(ev.MulByConst(a, 0.75)) }},
		{"MulRelin", func() []*ring.Poly { return cts(ev.MulRelin(a, b)) }},
		{"MulNoRelin", func() []*ring.Poly { c := ev.MulNoRelin(a, b); return []*ring.Poly{c.C0, c.C1, c.C2} }},
		{"Add2", func() []*ring.Poly {
			c := ev.Add2(ev.MulNoRelin(a, b), ev.MulNoRelin(b, b))
			return []*ring.Poly{c.C0, c.C1, c.C2}
		}},
		{"Rescale", func() []*ring.Poly { return cts(ev.Rescale(a)) }},
		{"Rotate", func() []*ring.Poly { return cts(ev.Rotate(a, 3)) }},
		{"Rotate by 0", func() []*ring.Poly { return cts(ev.Rotate(a, 0)) }},
		{"Conjugate", func() []*ring.Poly { return cts(ev.Conjugate(a)) }},
		{"RaiseModulus", func() []*ring.Poly { return cts(ev.RaiseModulus(low)) }},
		{"RotateHoisted", func() []*ring.Poly { return hoisted(ev.RotateHoisted(a, []int{0, 1, 3})) }},
		{"RotateHoistedExt+ModDownExt", func() []*ring.Poly { return exts(ev.RotateHoistedExt(a, []int{0, 1, 3})) }},
		{"RotateHoistedClosed+ModDownExt", func() []*ring.Poly { return exts(ev.RotateHoistedClosed(a, []int{0, 1, 3})) }},
		{"RelinearizeExt+ModDownExtRescale", func() []*ring.Poly {
			return cts(ev.ModDownExtRescale(ev.RelinearizeExt(ev.MulNoRelin(a, b))))
		}},
		{"MulPlainExtAcc+ModDownExt", func() []*ring.Poly {
			x := ev.RotateExt(a, 1)
			acc := ev.NewExtAccumulator(4, a.Scale*ptExt.Scale)
			ev.MulPlainExtAcc([]*ExtCiphertext{x}, []*ExtPlaintext{ptExt}, acc)
			ev.ReleaseExt(x)
			return cts(ev.ModDownExt(acc))
		}},
		{"AddConstAcc", func() []*ring.Poly {
			c := ev.Add(a, b)
			ev.AddConstAcc(0.25, c)
			return cts(c)
		}},
	} {
		empty()
		want := op.fn()
		poison()
		got := op.fn()
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: polynomial %d differs after the pool was poisoned", op.name, i)
			}
		}
	}
}

// TestAddConstAccAndViews: AddConstAcc is AddConst in place, a view shares
// its ciphertext's rows, and Release takes a ciphertext's rows from it.
func TestAddConstAccAndViews(t *testing.T) {
	tc := newTestContext(t, 5, 3, nil)
	ev := tc.eval
	pt, err := encodeMax(tc.enc, randomComplex(tc.params.Slots(), 1))
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	want := ev.AddConst(ct, 0.5)
	got := ev.Neg(ev.Neg(ct))
	ev.AddConstAcc(0.5, got)
	if !got.Equal(want) {
		t.Fatal("AddConstAcc differs from AddConst")
	}
	view := got.ViewAtLevel(1)
	if view.Level() != 1 || &view.C0.Coeffs[1][0] != &got.C0.Coeffs[1][0] || &view.C1.Coeffs[0][0] != &got.C1.Coeffs[0][0] {
		t.Fatal("ViewAtLevel does not share the ciphertext's rows")
	}
	ev.Release(view)
	if view.C0.Coeffs != nil || view.C1.Coeffs != nil {
		t.Fatal("Release left the ciphertext its rows")
	}
}

// TestReleasedResultAllocations pins what an op allocates when its result's
// rows go back to the pool before the next call: the ciphertext and
// polynomial structs and the limb closures, no row and no row-set header. At
// N = 2^12 and 5 levels, serial, then in parallel on four workers, where a
// warm call recycles the state ForEachLimb shares with its helpers: one more
// allocation is allowed there, for a helper's goroutine made while one that
// just finished has not yet exited.
func TestReleasedResultAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	if poisonPool {
		t.Skip("the poisonpool build never hands a row-set header out again")
	}
	tc := newTestContext(t, 12, 4, []int{1})
	ev := tc.eval
	pt, err := encodeMax(tc.enc, randomComplex(tc.params.Slots(), 1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := tc.encr.Encrypt(pt), tc.encr.Encrypt(pt)
	ops := []struct {
		name string
		fn   func()
		want float64
	}{
		{"Rotate", func() { ev.Release(ev.Rotate(a, 1)) }, 13},
		{"MulRelin", func() { ev.Release(ev.MulRelin(a, b)) }, 19},
		{"Rescale", func() { ev.Release(ev.Rescale(a)) }, 5},
	}
	t.Run("serial", func(t *testing.T) {
		ring.SetSerial(true) // no goroutine bookkeeping in the count
		defer ring.SetSerial(false)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool cache
		for _, op := range ops {
			op.fn() // fill the pool
			if got := testing.AllocsPerRun(20, op.fn); got != op.want {
				t.Errorf("%s makes %.0f allocations, want %.0f", op.name, got, op.want)
			}
		}
	})
	t.Run("parallel", func(t *testing.T) {
		old := ring.MaxWorkers()
		ring.SetMaxWorkers(4)
		defer ring.SetMaxWorkers(old)
		for _, op := range ops {
			op.fn()
			if got := testing.AllocsPerRun(20, op.fn); got > op.want+1 {
				t.Errorf("%s makes %.0f allocations in parallel, want at most %.0f", op.name, got, op.want+1)
			}
		}
	})
}
