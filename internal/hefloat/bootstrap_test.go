package hefloat

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/cmplx"
	"reflect"
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
	p, q, r, s, err := invertEmbedding(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
