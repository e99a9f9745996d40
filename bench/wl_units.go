package main

import (
	"hydra/internal/ckks"
	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/ring"
)

// ckksUnit holds the unit costs the fhir cost model prices counts with, ms.
type ckksUnit struct {
	encode, mulplain, rotate, hoistedPerRot, mulrelin, rescale float64
}

// ckksUnits measures the ring and ckks unit costs of a traced he-* run by
// direct calls at the workload's own parameters and the given level, and
// records them in b.m.
func ckksUnits(b *bench, e *ckksEnv, level int) ckksUnit {
	params := e.params
	limbs := float64(level + 1)

	// ring, per limb.
	r := params.RingQP()
	smp := ring.NewSampler(r, b.cfg.seed)
	p, q, acc := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	smp.Uniform(p)
	smp.Uniform(q)
	ntt := b.unit(func() { p.IsNTT = false; r.NTT(p) })
	b.m["ring.ntt_us"] = 1e3 * ntt / limbs
	b.m["ring.intt_us"] = 1e3 * b.unit(func() { p.IsNTT = true; r.INTT(p) }) / limbs
	p.IsNTT, q.IsNTT, acc.IsNTT = true, true, true
	b.m["ring.mulcoeffs_add_us"] = 1e3 * b.unit(func() { r.MulCoeffsAdd(p, q, acc) }) / limbs
	perm := ring.AutomorphismNTTIndex(r.N, ring.GaloisElementForRotation(r.N, 1))
	b.m["ring.automorphism_us"] = 1e3 * b.unit(func() { r.AutomorphismNTT(p, perm, acc) }) / limbs
	was := ring.Serial()
	ring.SetSerial(true)
	serial := b.unit(func() { p.IsNTT = false; r.NTT(p) })
	ring.SetSerial(was)
	b.m["ring.par_speedup"] = serial / ntt

	// ckks, one call each.
	var u ckksUnit
	vals := drawSlots(b.rng, params.Slots(), 0.5, false)
	scale := params.DefaultScale()
	pt, err := e.enc.EncodeAtLevel(vals, scale, level)
	if err != nil {
		panic(err)
	}
	ct := e.encr.Encrypt(pt)
	u.encode = b.unit(func() { _, _ = e.enc.EncodeAtLevel(vals, scale, level) })
	b.m["ckks.encrypt_ms"] = b.unit(func() { e.encr.Encrypt(pt) })
	b.m["ckks.decrypt_decode_ms"] = b.unit(func() { e.enc.Decode(e.decr.Decrypt(ct)) })
	u.mulplain = b.unit(func() { e.eval.MulPlain(ct, pt) })

	// Eight fresh rotation keys price key generation and carry the rotation
	// measurements, so that he-mul and he-boot need none of their own.
	rots := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var rtks *ckks.RotationKeySet
	b.m["ckks.keygen_ms_per_rotkey"] = b.unit(func() { rtks = e.kg.GenRotationKeys(e.sk, rots, false) }) / float64(len(rots))
	eval := ckks.NewEvaluator(params, e.rlk, rtks)
	u.rotate = b.unit(func() { eval.Rotate(ct, 1) })
	u.hoistedPerRot = b.unit(func() { eval.RotateHoisted(ct, rots) }) / float64(len(rots))
	b.m["ckks.allocs_per_rotate"] = mallocsPer(10, func() { eval.Rotate(ct, 1) })
	if level > 0 {
		u.mulrelin = b.unit(func() { eval.MulRelin(ct, ct) })
		prod := eval.MulRelin(ct, ct)
		u.rescale = b.unit(func() { eval.Rescale(prod) })
		b.m["ckks.allocs_per_mulrelin"] = mallocsPer(10, func() { eval.MulRelin(ct, ct) })
	}

	wire := ckks.MarshalCiphertext(ct)
	b.m["ckks.ct_wire_bytes"] = float64(len(wire))
	b.m["ckks.marshal_ms"] = b.unit(func() { ckks.MarshalCiphertext(ct) })
	b.m["ckks.unmarshal_ms"] = b.unit(func() { _, _ = ckks.UnmarshalCiphertext(params, wire) })

	b.m["ckks.encode_ms"] = u.encode
	b.m["ckks.mulplain_ms"] = u.mulplain
	b.m["ckks.rotate_ms"] = u.rotate
	b.m["ckks.rotate_hoisted_ms_per_rot"] = u.hoistedPerRot
	b.m["ckks.mulrelin_ms"] = u.mulrelin
	b.m["ckks.rescale_ms"] = u.rescale
	b.m["ckks.ks_over_pmult_measured"] = u.rotate / u.mulplain

	// The accelerator model's answer to the same ratio, at the paper's scheme.
	card, s := hw.HydraCard(), hw.PaperScheme()
	b.m["hw.ks_over_pmult_model"] = card.OpTime(fheop.Rotation, s.MaxLimbs, s) / card.OpTime(fheop.PMult, s.MaxLimbs, s)
	return u
}
