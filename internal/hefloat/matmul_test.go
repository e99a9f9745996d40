package hefloat

import (
	"fmt"
	"math"
	"testing"

	"hydra/internal/ckks"
)

// The column-major packing the matrix-product descriptions are laid out for
// (column c in slots [c·k, (c+1)·k)), as the client side would apply it.

// packMatrix encodes a k×k real matrix column-major into a plaintext; k²
// must equal the slot count so column rotations wrap cyclically.
func packMatrix(enc *ckks.Encoder, m [][]float64, level int, scale float64) (*ckks.Plaintext, error) {
	k := len(m)
	slots := enc.Params().Slots()
	if k*k != slots {
		return nil, fmt.Errorf("hefloat: matrix size %d² must equal slot count %d", k, slots)
	}
	vals := make([]complex128, slots)
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			vals[c*k+r] = complex(m[r][c], 0)
		}
	}
	return enc.EncodeAtLevel(vals, scale, level)
}

// unpackMatrix decodes a column-major packed k×k matrix.
func unpackMatrix(enc *ckks.Encoder, pt *ckks.Plaintext, k int) [][]float64 {
	vals := enc.Decode(pt)
	m := make([][]float64, k)
	for r := range m {
		m[r] = make([]float64, k)
	}
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			m[r][c] = real(vals[c*k+r])
		}
	}
	return m
}

func matK(env *testEnv) int {
	k := 1
	for k*k < env.params.Slots() {
		k++
	}
	return k
}

func seqRealMatrix(k int, seed float64) [][]float64 {
	m := make([][]float64, k)
	for r := range m {
		m[r] = make([]float64, k)
		for c := range m[r] {
			m[r][c] = math.Sin(seed + float64(r*k+c))
		}
	}
	return m
}

func maxMatErr(got, want [][]float64) float64 {
	m := 0.0
	for r := range want {
		for c := range want[r] {
			if e := math.Abs(got[r][c] - want[r][c]); e > m {
				m = e
			}
		}
	}
	return m
}

func TestPackUnpackMatrix(t *testing.T) {
	env := newEnv(t, 5, 2, nil) // slots 16 → k = 4
	k := matK(env)
	m := seqRealMatrix(k, 0.3)
	pt, err := packMatrix(env.enc, m, env.params.MaxLevel(), env.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	back := unpackMatrix(env.enc, pt, k)
	if e := maxMatErr(back, m); e > 1e-8 {
		t.Fatalf("pack/unpack error %g", e)
	}
}

func TestPackMatrixRejectsWrongSize(t *testing.T) {
	env := newEnv(t, 5, 2, nil)
	if _, err := packMatrix(env.enc, seqRealMatrix(3, 0), env.params.MaxLevel(), 1<<45); err == nil {
		t.Fatal("expected size error")
	}
}

func TestPCMMRotationBudget(t *testing.T) {
	// One rotation per diagonal (Table I: 1 Rotation, 1 PMult per unit).
	if got := len(PCMMRotations(8)); got != 7 {
		t.Fatalf("PCMM needs %d rotations for k=8, want 7", got)
	}
}

func TestSigmaTauPermutations(t *testing.T) {
	k := 4
	sig := CCMMSigma(k)
	tau := CCMMTau(k)
	// Each row of a permutation matrix has exactly one 1.
	for _, m := range [][][]complex128{sig, tau} {
		for r := range m {
			ones := 0
			for c := range m[r] {
				if m[r][c] == 1 {
					ones++
				} else if m[r][c] != 0 {
					t.Fatal("non-binary entry")
				}
			}
			if ones != 1 {
				t.Fatalf("row %d has %d ones", r, ones)
			}
		}
	}
}
