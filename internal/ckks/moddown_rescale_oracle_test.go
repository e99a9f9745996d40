package ckks

import "testing"

// relinearizeOracle is the two-step relinearization: keyswitch c2 alone,
// divide the accumulator by P, then add c0 and c1 in the Q basis.
func relinearizeOracle(ev *Evaluator, ct *Ciphertext2) *Ciphertext {
	r := ev.params.RingQP()
	h := ev.decomposeExt(ct.C2)
	out := ev.newCiphertext(ct.Level(), ct.Scale)
	ev.ksFromDecomp(h, 1, ev.rlk.Key, out.C0.Coeffs, out.C1.Coeffs)
	h.release(r)
	r.Add(out.C0, ct.C0, out.C0)
	r.Add(out.C1, ct.C1, out.C1)
	return out
}

// rescaleOracle is the coefficient-domain rescale of both components.
func rescaleOracle(ev *Evaluator, ct *Ciphertext) *Ciphertext {
	r, lvl := ev.params.RingQP(), ct.Level()
	return &Ciphertext{
		C0:    divRoundByModulusOracle(r, ct.C0, lvl),
		C1:    divRoundByModulusOracle(r, ct.C1, lvl),
		Scale: ct.Scale / float64(r.Moduli[lvl]),
	}
}

// TestModDownExtRescaleMatchesTwoStep: dividing an extended-basis accumulator
// by P·q_ℓ in one pass is word for word the division by P followed by the
// coefficient-domain rescale, at every level ≥ 1 of 3-, 5-, 17- and 21-limb
// chains (digit counts 1 to 3 with α = 1, 2, 6 and 7), for every kind of
// accumulator the evaluator defers: a relinearized tensor, a relinearized
// Add2 sum, a MulPlainExtAcc fold and an AddExtAcc fold of hoisted
// rotations. The closed relinearization (ModDownExt of RelinearizeExt) and
// MulRelin equal the two-step relinearization too.
func TestModDownExtRescaleMatchesTwoStep(t *testing.T) {
	rots := []int{1, 3}
	for _, levels := range []int{2, 4, 16, 20} {
		tc := newTestContext(t, 5, levels, rots)
		ev := tc.eval
		for lvl := 1; lvl <= levels; lvl++ {
			enc := func(seed int64) *Ciphertext {
				pt, err := tc.enc.EncodeAtLevel(randomComplex(tc.params.Slots(), seed), tc.params.DefaultScale(), lvl)
				if err != nil {
					t.Fatal(err)
				}
				return tc.encr.Encrypt(pt)
			}
			x, y, z := enc(int64(3*lvl)), enc(int64(3*lvl+1)), enc(int64(3*lvl+2))
			xy := ev.MulNoRelin(x, y)
			sum := ev.Add2(xy, ev.MulNoRelin(y, z))
			w, err := tc.enc.EncodeExtAtLevel(randomComplex(tc.params.Slots(), int64(lvl)), tc.params.DefaultScale(), lvl)
			if err != nil {
				t.Fatal(err)
			}
			folds := map[string]func() *ExtCiphertext{
				"relin-tensor": func() *ExtCiphertext { return ev.RelinearizeExt(xy) },
				"relin-add2":   func() *ExtCiphertext { return ev.RelinearizeExt(sum) },
				"mulplain-fold": func() *ExtCiphertext {
					exts := ev.RotateHoistedExt(x, append([]int{0}, rots...))
					acc := ev.NewExtAccumulator(lvl, x.Scale*w.Scale)
					ev.MulPlainExtAcc([]*ExtCiphertext{exts[0], exts[1], exts[3]}, []*ExtPlaintext{w, w, w}, acc)
					for _, e := range exts {
						ev.ReleaseExt(e)
					}
					return acc
				},
				"rotate-add-fold": func() *ExtCiphertext {
					exts := ev.RotateHoistedExt(x, rots)
					acc := ev.NewExtAccumulator(lvl, x.Scale)
					for _, k := range rots {
						ev.AddExtAcc(exts[k], acc)
						ev.ReleaseExt(exts[k])
					}
					return acc
				},
			}
			for name, fold := range folds {
				acc := fold()
				want := rescaleOracle(ev, ev.ModDownExt(cloneExt(ev, acc)))
				if err := ctBitIdentical(ev.ModDownExtRescale(acc), want); err != nil {
					t.Errorf("%d limbs, level %d, %s: ModDownExtRescale differs from the two-step path: %v", levels+1, lvl, name, err)
				}
			}
			for name, pair := range map[string][2]*Ciphertext{
				"ModDownExt(RelinearizeExt)": {ev.ModDownExt(ev.RelinearizeExt(sum)), relinearizeOracle(ev, sum)},
				"MulRelin":                   {ev.MulRelin(x, y), relinearizeOracle(ev, xy)},
				"MulRelin+Rescale":           {ev.Rescale(ev.MulRelin(x, y)), rescaleOracle(ev, relinearizeOracle(ev, xy))},
			} {
				if err := ctBitIdentical(pair[0], pair[1]); err != nil {
					t.Errorf("%d limbs, level %d: %s differs from the two-step relinearization: %v", levels+1, lvl, name, err)
				}
			}
		}
		if !panics(func() { ev.ModDownExtRescale(ev.NewExtAccumulator(0, 1)) }) {
			t.Errorf("%d limbs: ModDownExtRescale at level 0 did not panic", levels+1)
		}
	}
}
