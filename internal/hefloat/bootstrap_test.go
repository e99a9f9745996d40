package hefloat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"runtime"
	"testing"

	"hydra/internal/ckks"
)

// bootParams builds a bootstrapping-capable parameter set: N = 512, a 50-bit
// base modulus, a deep 45-bit chain, and a sparse secret.
func bootEnv(t testing.TB) (*ckks.Parameters, *ckks.Encoder, *ckks.Encryptor, *ckks.Decryptor, *ckks.Evaluator, *Bootstrapper) {
	t.Helper()
	logQ := []int{50}
	for i := 0; i < 17; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:  9,
		LogQ:  logQ,
		LogP:  55,
		Scale: 1 << 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKeySparse(32)
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	opts := BootstrapperOptions{K: 16}
	rtks := kg.GenRotationKeys(sk, BootstrapRotations(params, opts), true)
	enc := ckks.NewEncoder(params)
	eval := ckks.NewEvaluator(params, rlk, rtks)
	bt, err := NewBootstrapper(params, enc, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	return params, enc, ckks.NewEncryptor(params, pk, 2), ckks.NewDecryptor(params, sk), eval, bt
}

// bootstrapDigest is the SHA-256 of the wire form of the bootstrap
// TestBootstrapRefreshesLevelAndMessage computes.
const bootstrapDigest = "77b91cbab8ca35b90c2cb34b5834fd9284193fb28ffc3ce91ed8b901decb7220"

func TestBootstrapRefreshesLevelAndMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping in short mode")
	}
	params, enc, encr, decr, _, bt := bootEnv(t)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(0.4*math.Sin(float64(i)), 0.3*math.Cos(float64(i)/2))
	}
	pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt)
	if ct.Level() != 0 {
		t.Fatalf("input level %d", ct.Level())
	}
	out, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level() < 2 {
		t.Fatalf("bootstrap output level %d too low to be useful", out.Level())
	}
	// The refreshed ciphertext itself is pinned word for word: every residue,
	// the level and the scale.
	sum := sha256.Sum256(ckks.MarshalCiphertext(out))
	if d := hex.EncodeToString(sum[:]); d != bootstrapDigest {
		t.Errorf("bootstrap output digest %s, want %s", d, bootstrapDigest)
	}
	got := enc.Decode(decr.Decrypt(out))
	maxErr := 0.0
	for i := range vals {
		if e := cmplx.Abs(got[i] - vals[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.02 {
		t.Fatalf("bootstrap error %g too large (slot0 got %v want %v)", maxErr, got[0], vals[0])
	}
	t.Logf("bootstrap: level 0 -> %d, max error %.2e", out.Level(), maxErr)
}

// bootstrapRunDigests are the SHA-256s of the wire forms of three
// bootstraps run back to back on one Bootstrapper, each of a fresh input.
var bootstrapRunDigests = [3]string{
	"85f842bdba98ad7bcec5e96e8446f52e0aa483f4a3ac35f515d6bb9cef6126db",
	"427c8ee77b6024011ad365c7efb55e9ce0b6b0da00f946176925399e146b644a",
	"dc2208bad7763ffe80483e863b3623931dc0986b1793a2cc9d992ed16e687148",
}

// TestBootstrapDigestsPinned: repeated bootstraps on one Bootstrapper give
// the same ciphertexts word for word, whatever rows the earlier calls gave
// back to the ring's row pool. scripts/ci.sh runs it under the race detector,
// where the two sine branches share that pool, and with the poisoned-pool
// build tag, where a row read after its release holds garbage.
func TestBootstrapDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping in short mode")
	}
	params, enc, encr, _, _, bt := bootEnv(t)
	for run, want := range bootstrapRunDigests {
		vals := make([]complex128, params.Slots())
		for i := range vals {
			vals[i] = complex(0.4*math.Sin(float64(i*(run+2))), 0.3*math.Cos(float64(i+run)))
		}
		pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := bt.Bootstrap(encr.Encrypt(pt))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(ckks.MarshalCiphertext(out))
		if d := hex.EncodeToString(sum[:]); d != want {
			t.Errorf("run %d: bootstrap output digest %s, want %s", run, d, want)
		}
	}
}

// TestBootstrapAllocation: a warm Bootstrap gives the rows of every
// intermediate it does not return back to the ring's row pool, and their
// row-set headers too, so what it allocates is its result, structs and
// closures, not a second copy of its working set (about 29 MB per call at
// N = 512 when nothing went back, 1.4 MB when the headers did not). It reads
// about 0.4 MB, and about 1.1 MB in a poisonpool build, which never hands a
// header out again.
func TestBootstrapAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping in short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	params, enc, encr, _, _, bt := bootEnv(t)
	pt, err := enc.EncodeAtLevel(make([]complex128, params.Slots()), params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt)
	boot := func() {
		if _, err := bt.Bootstrap(ct); err != nil {
			t.Fatal(err)
		}
	}
	boot() // compile the SlotToCoeff plans and fill the pool
	boot()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		boot()
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20); mb > 1.25 {
		t.Errorf("a warm Bootstrap allocates %.2f MB, want at most 1.25", mb)
	}
}

func TestBootstrapThenCompute(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping in short mode")
	}
	params, enc, encr, decr, eval, bt := bootEnv(t)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(0.3*math.Cos(float64(i)), 0)
	}
	pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt)
	out, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	// The refreshed ciphertext supports further multiplication — the whole
	// point of bootstrapping.
	sq := eval.Rescale(eval.MulRelin(out, out))
	got := enc.Decode(decr.Decrypt(sq))
	maxErr := 0.0
	for i := range vals {
		want := vals[i] * vals[i]
		if e := cmplx.Abs(got[i] - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.03 {
		t.Fatalf("post-bootstrap square error %g", maxErr)
	}
}

func TestBootstrapRejectsBadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping in short mode")
	}
	params, enc, encr, _, _, bt := bootEnv(t)
	pt, _ := encodeMax(enc, make([]complex128, params.Slots()))
	ct := encr.Encrypt(pt) // top level, not level 0
	if _, err := bt.Bootstrap(ct); err == nil {
		t.Fatal("expected error for non-level-0 input")
	}
}

// TestNewBootstrapperNeedsBindings: a bootstrapper without an encoder or an
// evaluator cannot run; the constructor says so instead of returning an object
// whose first Bootstrap nil-dereferences. The keyless form is the description.
func TestNewBootstrapperNeedsBindings(t *testing.T) {
	params := ckks.TestParameters(6, 2)
	enc := ckks.NewEncoder(params)
	eval := ckks.NewEvaluator(params, nil, nil)
	for name, bind := range map[string]struct {
		enc  *ckks.Encoder
		eval *ckks.Evaluator
	}{"nil evaluator": {enc, nil}, "nil encoder": {nil, eval}} {
		if bt, err := NewBootstrapper(params, bind.enc, bind.eval, BootstrapperOptions{}); err == nil || bt != nil {
			t.Errorf("%s: NewBootstrapper returned %v, %v; want an error", name, bt, err)
		}
	}
	d, err := NewBootstrapDesc(params, BootstrapperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := BootstrapRotations(params, BootstrapperOptions{}); !reflect.DeepEqual(d.Rotations, want) {
		t.Errorf("description rotations %v, want %v", d.Rotations, want)
	}
}

// TestSineTaylorPair checks the one sine-series generator against the closed
// form: sin y = Σ (-1)^k y^(2k+1)/(2k+1)! up to y^deg, cos y = Σ (-1)^k
// y^(2k)/(2k)! up to y^(deg+1).
func TestSineTaylorPair(t *testing.T) {
	for _, deg := range []int{3, 7, 15} {
		sin, cos := sineTaylorPair(deg)
		if len(sin) != deg+1 || len(cos) != deg+2 {
			t.Fatalf("deg %d: %d sine and %d cosine coefficients", deg, len(sin), len(cos))
		}
		fact := uint64(1) // i!, exact up to 20!
		for i := 0; i <= deg+1; i++ {
			if i > 1 {
				fact *= uint64(i)
			}
			want := 1 / float64(fact)
			if i%4 >= 2 {
				want = -want
			}
			wantSin, wantCos := 0.0, want
			if i%2 == 1 {
				wantSin, wantCos = want, 0
			}
			if i <= deg && sin[i] != wantSin {
				t.Errorf("deg %d: sin[%d] = %g, want %g", deg, i, sin[i], wantSin)
			}
			if cos[i] != wantCos {
				t.Errorf("deg %d: cos[%d] = %g, want %g", deg, i, cos[i], wantCos)
			}
		}
	}
}

func TestInvertEmbeddingRecoversCoefficients(t *testing.T) {
	params := ckks.TestParameters(6, 2)
	enc := ckks.NewEncoder(params)
	a, b := probeEmbedding(params, enc)
	p, q, r, s := invertEmbedding(a, b)
	n := params.Slots()
	// Pick arbitrary real coefficient halves, map through A,B, and verify
	// the inverse blocks recover them.
	c0 := make([]complex128, n)
	c1 := make([]complex128, n)
	for i := 0; i < n; i++ {
		c0[i] = complex(math.Sin(float64(i)), 0)
		c1[i] = complex(math.Cos(float64(i)*1.3), 0)
	}
	z := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			z[i] += a[i][j]*c0[j] + b[i][j]*c1[j]
		}
	}
	for i := 0; i < n; i++ {
		var rec0, rec1 complex128
		for j := 0; j < n; j++ {
			rec0 += p[i][j]*z[j] + q[i][j]*cmplx.Conj(z[j])
			rec1 += r[i][j]*z[j] + s[i][j]*cmplx.Conj(z[j])
		}
		if cmplx.Abs(rec0-c0[i]) > 1e-6 || cmplx.Abs(rec1-c1[i]) > 1e-6 {
			t.Fatalf("coefficient recovery failed at %d: %v vs %v, %v vs %v", i, rec0, c0[i], rec1, c1[i])
		}
	}
}

// invertEmbeddingElimination is invertEmbedding's oracle: it solves
// [c0; c1] = [[P,Q],[R,S]]·[z; conj(z)] given z = A·c0 + B·c1 by Gauss–Jordan
// elimination, with partial pivoting, of the stacked 2n×2n complex system.
func invertEmbeddingElimination(a, b [][]complex128) (p, q, r, s [][]complex128, err error) {
	n := len(a)
	m := 2 * n
	// M = [[A, B], [conj(A), conj(B)]], augmented with the identity.
	aug := make([][]complex128, m)
	for i := 0; i < m; i++ {
		aug[i] = make([]complex128, 2*m)
		for j := 0; j < n; j++ {
			if i < n {
				aug[i][j] = a[i][j]
				aug[i][j+n] = b[i][j]
			} else {
				aug[i][j] = cmplx.Conj(a[i-n][j])
				aug[i][j+n] = cmplx.Conj(b[i-n][j])
			}
		}
		aug[i][m+i] = 1
	}
	for col := 0; col < m; col++ {
		piv := col
		for row := col + 1; row < m; row++ {
			if cmplx.Abs(aug[row][col]) > cmplx.Abs(aug[piv][col]) {
				piv = row
			}
		}
		if cmplx.Abs(aug[piv][col]) < 1e-12 {
			return nil, nil, nil, nil, fmt.Errorf("embedding system is singular at column %d", col)
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := 1 / aug[col][col]
		for j := col; j < 2*m; j++ {
			aug[col][j] *= inv
		}
		for row := 0; row < m; row++ {
			if row == col || aug[row][col] == 0 {
				continue
			}
			f := aug[row][col]
			for j := col; j < 2*m; j++ {
				aug[row][j] -= f * aug[col][j]
			}
		}
	}
	block := func(r0, c0 int) [][]complex128 {
		out := make([][]complex128, n)
		for i := range out {
			out[i] = make([]complex128, n)
			for j := range out[i] {
				out[i][j] = aug[r0+i][m+c0+j]
			}
		}
		return out
	}
	return block(0, 0), block(0, n), block(n, 0), block(n, n), nil
}

// TestInvertEmbeddingMatchesElimination holds the closed-form inverse to the
// eliminated one entry for entry, and checks M·M⁻¹ = I for the stacked system
// M = [[A, B], [conj(A), conj(B)]], at N = 64 and at the bootstrap's N = 512.
func TestInvertEmbeddingMatchesElimination(t *testing.T) {
	const tol = 1e-13
	for _, logN := range []int{6, 9} {
		params := ckks.TestParameters(logN, 2)
		a, b := probeEmbedding(params, ckks.NewEncoder(params))
		p, q, r, s := invertEmbedding(a, b)
		wp, wq, wr, ws, err := invertEmbeddingElimination(a, b)
		if err != nil {
			t.Fatal(err)
		}
		n := len(a)
		worst := 0.0
		for bi, pair := range [4][2][][]complex128{{p, wp}, {q, wq}, {r, wr}, {s, ws}} {
			for i := range n {
				for j := range n {
					if e := cmplx.Abs(pair[0][i][j] - pair[1][i][j]); e > worst {
						worst = e
						if e > tol {
							t.Fatalf("logN %d: block %d entry (%d,%d) is %v, elimination gives %v", logN, bi, i, j, pair[0][i][j], pair[1][i][j])
						}
					}
				}
			}
		}
		// M·M⁻¹ = I, with M⁻¹ = [[P, Q], [R, S]].
		m, mInv := make([][]complex128, 2*n), make([][]complex128, 2*n)
		for i := range n {
			m[i] = append(append([]complex128{}, a[i]...), b[i]...)
			m[n+i] = make([]complex128, 2*n)
			for k, v := range m[i] {
				m[n+i][k] = cmplx.Conj(v)
			}
			mInv[i] = append(append([]complex128{}, p[i]...), q[i]...)
			mInv[n+i] = append(append([]complex128{}, r[i]...), s[i]...)
		}
		row := make([]complex128, 2*n)
		for i := range m {
			clear(row)
			for k, mik := range m[i] {
				for j, v := range mInv[k] {
					row[j] += mik * v
				}
			}
			row[i]--
			for j, v := range row {
				if cmplx.Abs(v) > tol {
					t.Fatalf("logN %d: (M·M⁻¹ - I)[%d][%d] = %v", logN, i, j, v)
				}
			}
		}
		t.Logf("logN %d: closed form within %.1e of elimination", logN, worst)
	}
}

func TestRaiseModulusSemantics(t *testing.T) {
	params := ckks.TestParameters(8, 4)
	kg := ckks.NewKeyGenerator(params, 3)
	sk := kg.GenSecretKeySparse(16)
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 4)
	decr := ckks.NewDecryptor(params, sk)
	eval := ckks.NewEvaluator(params, nil, nil)

	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(0.25, 0)
	}
	pt, _ := enc.EncodeAtLevel(vals, params.DefaultScale(), 0)
	ct := encr.Encrypt(pt)
	raised := eval.RaiseModulus(ct)
	if raised.Level() != params.MaxLevel() {
		t.Fatalf("raised level %d, want %d", raised.Level(), params.MaxLevel())
	}
	// Decrypting the raised ciphertext and reducing centered mod q0 must
	// recover the message: the raise only adds q0·I(X).
	got := enc.Decode(decr.Decrypt(ct))
	for i := range vals {
		if cmplx.Abs(got[i]-vals[i]) > 1e-5 {
			t.Fatalf("baseline decode broken at %d", i)
		}
	}
}

func TestEvalSineAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping in short mode")
	}
	params, enc, encr, decr, _, bt := bootEnv(t)
	// Slot values mimic the post-C2S distribution: integers plus a small
	// fractional message part.
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%7-3)+0.01*float64(i%5), 0)
	}
	pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), params.MaxLevel()-1)
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt)
	s, err := bt.evalSine(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(decr.Decrypt(s))
	for i := range vals {
		want := complex(math.Sin(2*math.Pi*real(vals[i])), 0)
		if cmplx.Abs(got[i]-want) > 5e-3 {
			t.Fatalf("sine error at %d: got %v want %v", i, got[i], want)
		}
	}
}
