package ring

// Automorphism indices: the Galois automorphism τ_k maps a(X) to a(X^k) for
// odd k ∈ [1, 2N). In CKKS, rotating the slot vector by r positions uses
// k = 5^r mod 2N, and complex conjugation uses k = 2N-1.

// GaloisElementForRotation returns the Galois element realizing a rotation by
// r slots (r may be negative) in a ring of degree n.
func GaloisElementForRotation(n, r int) uint64 {
	m := uint64(2 * n)
	// Slot count is n/2; reduce r modulo it.
	slots := n / 2
	r = ((r % slots) + slots) % slots
	k := uint64(1)
	for i := 0; i < r; i++ {
		k = (k * 5) % m
	}
	return k
}

// GaloisElementConjugate returns the Galois element realizing complex
// conjugation of the slots in a ring of degree n.
func GaloisElementConjugate(n int) uint64 {
	return uint64(2*n - 1)
}

// AutomorphismNTTIndex precomputes the NTT-domain permutation for τ_k:
// out[j] = in[perm[j]]. With the natural evaluation ordering used by NTTTable
// (index j ↔ evaluation at ψ^(2j+1)), τ_k sends evaluation point ψ^(2j+1) to
// ψ^((2j+1)k), so perm[j] = (((2j+1)·k mod 2N) - 1) / 2.
func AutomorphismNTTIndex(n int, k uint64) []int {
	m := uint64(2 * n)
	perm := make([]int, n)
	for j := 0; j < n; j++ {
		e := (uint64(2*j+1) * k) % m
		perm[j] = int((e - 1) / 2)
	}
	return perm
}

// AutomorphismNTT applies τ_k in the NTT domain using a precomputed index
// (see AutomorphismNTTIndex). in and out must not alias.
func (r *Ring) AutomorphismNTT(in *Poly, perm []int, out *Poly) {
	if !in.IsNTT {
		panic("ring: AutomorphismNTT requires NTT domain")
	}
	lvl := in.Level()
	if out.Level() < lvl {
		lvl = out.Level()
	}
	ForEachLimb(lvl+1, func(i int) {
		src, dst := in.Coeffs[i], out.Coeffs[i]
		for j := range dst {
			dst[j] = src[perm[j]]
		}
	})
	out.IsNTT = true
}
