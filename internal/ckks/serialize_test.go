package ckks

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hydra/internal/ring"
)

func TestCiphertextRoundTrip(t *testing.T) {
	tc := newTestContext(t, 9, 3, nil)
	vals := randomComplex(tc.params.Slots(), 30)
	pt, _ := encodeMax(tc.enc, vals)
	ct := tc.encr.Encrypt(pt)

	data := MarshalCiphertext(ct)
	back, err := UnmarshalCiphertext(tc.params, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Level() != ct.Level() || back.Scale != ct.Scale {
		t.Fatalf("metadata changed: level %d scale %g", back.Level(), back.Scale)
	}
	if !back.C0.Equal(ct.C0) || !back.C1.Equal(ct.C1) {
		t.Fatal("polynomials changed")
	}
	// The decoded ciphertext still decrypts.
	got := tc.enc.Decode(tc.decr.Decrypt(back))
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("round-tripped ciphertext decrypts with error %g", e)
	}
}

func TestCiphertextWireSizeMatchesCostModel(t *testing.T) {
	// The serialized size should match 2·limbs·N·8 up to the small header —
	// the quantity the hw cost model charges the DTU for.
	tc := newTestContext(t, 9, 3, nil)
	pt, _ := encodeMax(tc.enc, make([]complex128, tc.params.Slots()))
	ct := tc.encr.Encrypt(pt)
	data := MarshalCiphertext(ct)
	payload := 2 * (ct.Level() + 1) * tc.params.N() * 8
	if len(data) < payload || len(data) > payload+64 {
		t.Fatalf("wire size %d, payload %d", len(data), payload)
	}
}

func TestUnmarshalRejectsCorruptData(t *testing.T) {
	tc := newTestContext(t, 8, 2, nil)
	pt, _ := encodeMax(tc.enc, make([]complex128, tc.params.Slots()))
	ct := tc.encr.Encrypt(pt)
	data := MarshalCiphertext(ct)

	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  append([]byte{'X'}, data[1:]...),
		"truncated":  data[:len(data)/3],
		"trailing":   append(append([]byte{}, data...), 1, 2, 3),
		"wrong ring": nil,
	}
	for name, d := range cases {
		if name == "wrong ring" {
			other := TestParameters(9, 2)
			if _, err := UnmarshalCiphertext(other, data); err == nil {
				t.Fatal("wrong ring: expected error")
			}
			continue
		}
		if _, err := UnmarshalCiphertext(tc.params, d); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// A residue equal to its modulus breaks the [0,q) entry contract of
	// every lazy kernel downstream.
	d := outOfRangeLimb(tc.params, data)
	if _, err := UnmarshalCiphertext(tc.params, d); err == nil {
		t.Fatal("out-of-range limb: expected error")
	}
	// Corrupt the level field beyond the max.
	bad := append([]byte{}, data...)
	bad[8] = 200
	if _, err := UnmarshalCiphertext(tc.params, bad); err == nil {
		t.Fatal("expected level-range error")
	}
}

// outOfRangeLimb returns a copy of a marshalled ciphertext whose very last
// residue (c1's top limb) is that limb's modulus — one past the largest
// canonical value.
func outOfRangeLimb(params *Parameters, data []byte) []byte {
	level := int(binary.LittleEndian.Uint32(data[8:]))
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[len(bad)-8:], params.RingQP().Moduli[level])
	return bad
}

// FuzzUnmarshalCiphertext feeds hostile bytes to the ciphertext decoder: it
// must never panic, and whatever it accepts must satisfy what the evaluator
// assumes of a ciphertext — a level the parameters have, every residue
// canonical in [0, q_i) — and re-encode to the bytes it came from.
func FuzzUnmarshalCiphertext(f *testing.F) {
	tc := newTestContext(f, 4, 2, nil)
	pt, err := encodeMax(tc.enc, randomComplex(tc.params.Slots(), 32))
	if err != nil {
		f.Fatal(err)
	}
	valid := MarshalCiphertext(tc.encr.Encrypt(pt))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(outOfRangeLimb(tc.params, valid))

	moduli := tc.params.RingQP().Moduli
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := UnmarshalCiphertext(tc.params, data)
		if err != nil {
			return
		}
		if ct.Level() < 0 || ct.Level() > tc.params.MaxLevel() || ct.C1.Level() != ct.Level() {
			t.Fatalf("accepted level %d/%d outside [0,%d]", ct.Level(), ct.C1.Level(), tc.params.MaxLevel())
		}
		for _, p := range []*ring.Poly{ct.C0, ct.C1} {
			for i, limb := range p.Coeffs {
				for j, c := range limb {
					if c >= moduli[i] {
						t.Fatalf("accepted residue %d of limb %d = %d ≥ q = %d", j, i, c, moduli[i])
					}
				}
			}
		}
		// Byte 12, the domain flag, is the one lossy byte: any value other
		// than 1 decodes as coefficient domain and re-encodes as 0.
		back := MarshalCiphertext(ct)
		if !bytes.Equal(back[:12], data[:12]) || !bytes.Equal(back[13:], data[13:]) {
			t.Fatal("accepted blob does not re-encode to itself")
		}
	})
}
