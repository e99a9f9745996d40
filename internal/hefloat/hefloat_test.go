package hefloat

import (
	"math"
	"math/cmplx"
	"testing"

	"hydra/internal/ckks"
)

type testEnv struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	eval   *ckks.Evaluator
}

func newEnv(t testing.TB, logN, levels int, rotations []int) *testEnv {
	t.Helper()
	params := ckks.TestParameters(logN, levels)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rotations, false)
	return &testEnv{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, 2),
		decr:   ckks.NewDecryptor(params, sk),
		eval:   ckks.NewEvaluator(params, rlk, rtks),
	}
}

func seqMatrix(dim int) [][]complex128 {
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
		for j := range m[i] {
			m[i][j] = complex(float64((i*dim+j)%7)-3, 0)
		}
	}
	return m
}

func applyPlain(m [][]complex128, v []complex128) []complex128 {
	out := make([]complex128, len(m))
	for i := range m {
		for j := range m[i] {
			out[i] += m[i][j] * v[j]
		}
	}
	return out
}

func maxAbsErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func allRotations(dim int) []int {
	rots := make([]int, 0, dim)
	for d := 1; d < dim; d++ {
		rots = append(rots, d)
	}
	return rots
}

func TestLinearTransformValidation(t *testing.T) {
	if _, err := NewLinearTransform(nil); err == nil {
		t.Fatal("expected error for empty matrix")
	}
	if _, err := NewLinearTransform([][]complex128{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged matrix")
	}
}

func TestLinearTransformDiagonals(t *testing.T) {
	m := [][]complex128{{1, 2}, {3, 4}}
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Diags[0][0] != 1 || lt.Diags[0][1] != 4 {
		t.Fatalf("main diagonal wrong: %v", lt.Diags[0])
	}
	if lt.Diags[1][0] != 2 || lt.Diags[1][1] != 3 {
		t.Fatalf("off diagonal wrong: %v", lt.Diags[1])
	}
}

func TestLinearTransformNaive(t *testing.T) {
	env := newEnv(t, 9, 3, allRotations(1<<8))
	dim := env.params.Slots()
	m := seqMatrix(dim)
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]complex128, dim)
	for i := range v {
		v[i] = complex(math.Sin(float64(i)), 0)
	}
	pt, _ := env.enc.Encode(v)
	ct := env.encr.Encrypt(pt)
	// One baby step per diagonal: a rotation and a plaintext multiplication
	// per non-zero diagonal, the upper path of the paper's Fig. 3(d).
	res, err := lt.EvaluateBSGS(env.eval, env.enc, ct, lt.Dim)
	if err != nil {
		t.Fatal(err)
	}
	got := env.enc.Decode(env.decr.Decrypt(res))
	want := applyPlain(m, v)
	if e := maxAbsErr(got, want); e > 1e-2 {
		t.Fatalf("naive transform error %g", e)
	}
}

func TestLinearTransformBSGSMatchesNaive(t *testing.T) {
	env := newEnv(t, 9, 3, allRotations(1<<8))
	dim := env.params.Slots()
	m := seqMatrix(dim)
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]complex128, dim)
	for i := range v {
		v[i] = complex(math.Cos(float64(i)/3), 0)
	}
	pt, _ := env.enc.Encode(v)
	ct := env.encr.Encrypt(pt)
	want := applyPlain(m, v)
	for _, bs := range []int{4, 16} {
		res, err := lt.EvaluateBSGS(env.eval, env.enc, ct, bs)
		if err != nil {
			t.Fatal(err)
		}
		got := env.enc.Decode(env.decr.Decrypt(res))
		if e := maxAbsErr(got, want); e > 1e-2 {
			t.Fatalf("bs=%d: BSGS error %g", bs, e)
		}
	}
}

func TestBSGSRotationCount(t *testing.T) {
	// BSGS should need ~bs+gs rotations instead of dim-1.
	dim := 64
	m := seqMatrix(dim)
	lt, err := NewLinearTransform(m)
	if err != nil {
		t.Fatal(err)
	}
	naive := len(lt.RotationsBSGS(dim))
	bsgs := len(lt.RotationsBSGS(8))
	if naive != dim-1 {
		t.Fatalf("naive rotations = %d, want %d", naive, dim-1)
	}
	if bsgs >= naive || bsgs > 8+dim/8 {
		t.Fatalf("BSGS rotations = %d, not an improvement over %d", bsgs, naive)
	}
}

func TestEvaluateBSGSRejectsBadBS(t *testing.T) {
	env := newEnv(t, 6, 2, nil)
	lt, _ := NewLinearTransform(seqMatrix(env.params.Slots()))
	pt, _ := env.enc.Encode(make([]complex128, env.params.Slots()))
	ct := env.encr.Encrypt(pt)
	if _, err := lt.EvaluateBSGS(env.eval, env.enc, ct, 0); err == nil {
		t.Fatal("expected error for bs=0")
	}
}

// evalFloat evaluates p at a plaintext point.
func (p Polynomial) evalFloat(x float64) float64 {
	acc := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc = acc*x + p.Coeffs[i]
	}
	return acc
}

func testPolyOn(t *testing.T, p Polynomial, levels int, tol float64) {
	t.Helper()
	env := newEnv(t, 10, levels, nil)
	slots := env.params.Slots()
	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = complex(float64(i%17)/17.0-0.5, 0)
	}
	pt, _ := env.enc.Encode(vals)
	ct := env.encr.Encrypt(pt)
	res, err := EvaluateTree(env.eval, ct, p)
	if err != nil {
		t.Fatal(err)
	}
	got := env.enc.Decode(env.decr.Decrypt(res))
	want := make([]complex128, slots)
	for i := range vals {
		want[i] = complex(p.evalFloat(real(vals[i])), 0)
	}
	if e := maxAbsErr(got, want); e > tol {
		t.Fatalf("poly deg %d error %g > %g", p.Degree(), e, tol)
	}
}

func TestEvaluateTreeDeg3(t *testing.T) {
	testPolyOn(t, Polynomial{Coeffs: []float64{0.5, -1, 0.25, 2}}, 5, 1e-2)
}

func TestEvaluateTreeDeg7(t *testing.T) {
	testPolyOn(t, Polynomial{Coeffs: []float64{0.1, 0.2, -0.3, 0.4, -0.5, 0.6, -0.7, 0.8}}, 6, 1e-2)
}

func TestEvaluateTreeSparse(t *testing.T) {
	// Polynomial with zero sub-blocks exercises the nil-branch handling.
	testPolyOn(t, Polynomial{Coeffs: []float64{0, 0, 0, 0, 0, 0, 0, 1.5}}, 6, 1e-2)
	testPolyOn(t, Polynomial{Coeffs: []float64{0.7, 0, 0, 0, 0, 0, 0, 0, 1}}, 7, 1e-2)
}

func TestPolyDepth(t *testing.T) {
	cases := []struct {
		deg, depth int
	}{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {59, 6}}
	for _, c := range cases {
		p := Polynomial{Coeffs: make([]float64, c.deg+1)}
		if got := p.Depth(); got != c.depth {
			t.Fatalf("deg %d: depth = %d, want %d", c.deg, got, c.depth)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	env := newEnv(t, 8, 2, nil)
	pt, _ := env.enc.Encode(make([]complex128, env.params.Slots()))
	ct := env.encr.Encrypt(pt)
	if _, err := EvaluateTree(env.eval, ct, Polynomial{Coeffs: []float64{1}}); err == nil {
		t.Fatal("expected degree error (tree)")
	}
	deepTree := Polynomial{Coeffs: make([]float64, 1<<8)}
	deepTree.Coeffs[(1<<8)-1] = 1
	if _, err := EvaluateTree(env.eval, ct, deepTree); err == nil {
		t.Fatal("expected level error (tree)")
	}
}
