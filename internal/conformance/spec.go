// Package conformance is the cross-engine FHE conformance harness: one
// directory-driven corpus of small CKKS programs (testdata/programs/*.json),
// each with deterministic plaintext inputs, an interpreter-computed expected
// output, and a per-program precision budget, executed against five engines
// on one keyed environment per parameter set. Two are independent hand-written
// executions of the corpus on the ckks evaluator:
//
//  1. reference  — this package's oracle spellings (oracle.go: single-hoisted
//     per-call-encoded BSGS, Horner polynomial evaluation; per-rotation
//     keyswitching). The oracles live here because nothing else may call
//     them; the NTT kernels' own radix-2 oracle lives in internal/ring's
//     tests, which pin both production kernels to it per call;
//  2. optimized  — hefloat's production paths (plan-cached double-hoisted
//     EvaluateBSGS, power-tree polynomials, hoisted and ext-hoisted
//     rotations).
//
// The other three run the compiler's own lowerings of one compiled program:
// the spec is translated once into internal/fhir IR (buildIRProgram), compiled
// once by the full pass stack (CSE, lazy rescale placement, lazy
// relinearization, rotation hoisting), and then
//
//  3. cluster    — fhir.LowerCluster: the partition's shares, each run by
//     fhir's evaluator on its card, and the transfers that reduce them,
//     scheduled and executed as a 2-card job through internal/serve's
//     ClusterBackend;
//  4. sim        — fhir.BuildTaskProgram: the task graph is round-tripped
//     through the ISA encoding (internal/isa) and legality-checked on the
//     simulator (internal/sim); the numeric check becomes a
//     schedule-legality/decode check;
//  5. ir         — fhir.Evaluate: the ckks-evaluator lowering.
//
// Every numeric cell is scored against the plaintext interpreter (Interpret)
// under the program's budget. Engines 1 and 2 are additionally pinned
// bit-identical on the programs whose spec sets bitExact (the paths PR 4/5
// proved bit-identity for), and engine 5 to engine 3 on every program both
// pass: one evaluator, partitioned or whole, computes the same ciphertext.
// The per-(program, engine) pass matrix is compared against
// testdata/golden_matrix.json so an engine silently losing coverage fails CI.
package conformance

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"sort"
)

// Engine names, in report order.
var EngineNames = []string{"reference", "optimized", "cluster", "sim", "ir"}

// ProgramSpec is one conformance program: inputs, an op chain, the register
// holding the result, and how strictly engines must agree on it.
type ProgramSpec struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Params      ParamSpec   `json:"params"`
	Inputs      []InputSpec `json:"inputs"`
	Ops         []OpSpec    `json:"ops"`
	Output      string      `json:"output"`
	// Budget bounds the max absolute slot error of every numeric engine
	// against the plaintext interpreter.
	Budget float64 `json:"budget"`
	// BitExact additionally requires the reference and optimized engines to
	// produce bitwise-identical ciphertexts (same-seed encryptors on the
	// shared environment). Set only where the underlying paths are pinned
	// bit-identical; BSGS plans, tree polynomials and ext-hoisted sums are
	// tolerance-equal by design, not bit-equal.
	BitExact bool `json:"bitExact,omitempty"`
	// Heavy marks programs skipped under -short (the reduced CI -race matrix).
	Heavy bool `json:"heavy,omitempty"`
	// Skip maps an engine name to the reason it does not run this program.
	Skip map[string]string `json:"skip,omitempty"`
}

// ParamSpec selects the parameter environment a program runs under. The
// modulus chain is [2^50, 2^45 × Levels] with scale 2^45, the repo's standard
// test shape.
type ParamSpec struct {
	LogN   int `json:"logN"`
	Levels int `json:"levels"`
	LogP   int `json:"logP,omitempty"`   // 0 = 50
	Sparse int `json:"sparse,omitempty"` // secret Hamming weight; 0 = dense ternary
}

// InputSpec names an encrypted input and the deterministic generator filling
// its slots.
type InputSpec struct {
	Name string `json:"name"`
	Gen  string `json:"gen"`
}

// OpSpec is one step of a program. Which operand fields apply depends on Op:
//
//	add, sub, mul        A, B
//	neg, conjugate       A
//	rotate               A, K (slot rotation amount)
//	addconst, mulconst   A, Const
//	mulplain             A, Gen (plaintext vector; multiplied then rescaled)
//	rotsum, rotsumext    A, K (Σ_{i<K} rotate(A, i); ext uses the extended-
//	                     basis accumulator on the optimized engine)
//	lintrans             A, Matrix, BS (BS=0: one baby step per diagonal, the naive sum)
//	pcmm                 A, Matrix (k×k plaintext weights; k² = slots)
//	ccmm                 A, B (column-packed k×k operands)
//	poly                 A, Coeffs (real polynomial, ascending)
//	bootstrap            A (a program input; every input of a program that
//	                     bootstraps is encrypted at level 0, and the IR-driven
//	                     engines ModRaise it host-side before their program runs)
type OpSpec struct {
	Op     string    `json:"op"`
	Dst    string    `json:"dst"`
	A      string    `json:"a"`
	B      string    `json:"b,omitempty"`
	K      int       `json:"k,omitempty"`
	Const  float64   `json:"const,omitempty"`
	Gen    string    `json:"gen,omitempty"`
	Matrix string    `json:"matrix,omitempty"`
	BS     int       `json:"bs,omitempty"`
	Coeffs []float64 `json:"coeffs,omitempty"`
}

// LoadPrograms reads every *.json program under dir, sorted by name.
func LoadPrograms(dir string) ([]*ProgramSpec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("conformance: no programs under %s", dir)
	}
	sort.Strings(paths)
	specs := make([]*ProgramSpec, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		spec := &ProgramSpec{}
		if err := json.Unmarshal(data, spec); err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", p, err)
		}
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", p, err)
		}
		specs = append(specs, spec)
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			return nil, fmt.Errorf("conformance: duplicate program name %q", s.Name)
		}
		names[s.Name] = true
	}
	return specs, nil
}

func (s *ProgramSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("program needs a name")
	}
	if s.Params.LogN < 2 || s.Params.Levels < 1 {
		return fmt.Errorf("program %s: bad params %+v", s.Name, s.Params)
	}
	if s.Output == "" {
		return fmt.Errorf("program %s: no output register", s.Name)
	}
	if s.Budget <= 0 {
		return fmt.Errorf("program %s: precision budget must be positive", s.Name)
	}
	if len(s.Inputs) == 0 {
		return fmt.Errorf("program %s: needs at least one input", s.Name)
	}
	for eng := range s.Skip {
		ok := false
		for _, n := range EngineNames {
			ok = ok || n == eng
		}
		if !ok {
			return fmt.Errorf("program %s: skip of unknown engine %q", s.Name, eng)
		}
	}
	// A dry interpreter run surfaces undefined registers, unknown ops and
	// unknown generators at load time rather than mid-matrix.
	_, err := Interpret(s)
	return err
}

// Slots returns the slot count of the program's parameter set (logSlots
// defaults to logN-1 across the repo).
func (s *ProgramSpec) Slots() int { return 1 << (s.Params.LogN - 1) }

// usesBootstrap reports whether any op is a bootstrap (inputs are then
// encrypted at level 0).
func (s *ProgramSpec) usesBootstrap() bool {
	for _, op := range s.Ops {
		if op.Op == "bootstrap" {
			return true
		}
	}
	return false
}

// GenVector returns the deterministic input vector of the named generator.
// Values are kept well inside the unit box so deep programs stay within
// CKKS noise budgets.
func GenVector(name string, slots int) ([]complex128, error) {
	v := make([]complex128, slots)
	switch name {
	case "zero":
	case "ones":
		for i := range v {
			v[i] = 1
		}
	case "unit":
		v[0] = 1
	case "ramp":
		for i := range v {
			v[i] = complex(float64(i%8)/8.0-0.4, 0)
		}
	case "alt":
		for i := range v {
			if i%2 == 0 {
				v[i] = 0.5
			} else {
				v[i] = -0.5
			}
		}
	case "sin":
		for i := range v {
			v[i] = complex(0.4*math.Sin(float64(i)), 0)
		}
	case "cx":
		for i := range v {
			v[i] = complex(0.3*math.Cos(float64(i)), 0.3*math.Sin(float64(i)/2))
		}
	case "rand":
		// Deterministic LCG; any fixed pseudo-random pattern works, but it
		// must be stable across runs and platforms.
		state := uint64(0x9e3779b97f4a7c15)
		next := func() float64 {
			//lint:allow rawmod deterministic test-input LCG over the full uint64 wheel, not residue arithmetic mod q
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>11)/float64(1<<53) - 0.5
		}
		for i := range v {
			v[i] = complex(next(), next())
		}
	case "small":
		for i := range v {
			v[i] = complex(0.1*float64(i%4)/4.0, 0)
		}
	default:
		return nil, fmt.Errorf("conformance: unknown vector generator %q", name)
	}
	return v, nil
}

// GenMatrix returns the named dim×dim test matrix.
func GenMatrix(name string, dim int) ([][]complex128, error) {
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
	}
	switch name {
	case "identity":
		for i := range m {
			m[i][i] = 1
		}
	case "perm":
		// Cyclic shift: y[j] = x[(j+1) mod dim].
		for j := range m {
			m[j][(j+1)%dim] = 1
		}
	case "tridiag":
		for j := range m {
			m[j][j] = 0.5
			m[j][(j+1)%dim] = 0.25
			m[j][(j+dim-1)%dim] = 0.25
		}
	case "band4":
		for j := range m {
			for d := 0; d < 4; d++ {
				m[j][(j+d)%dim] = complex(0.4/float64(d+1), 0)
			}
		}
	case "dft":
		// Scaled DFT: dense, every diagonal non-zero, unitary up to 1/dim.
		for j := range m {
			for k := range m[j] {
				ang := 2 * math.Pi * float64(j*k) / float64(dim)
				m[j][k] = complex(math.Cos(ang)/float64(dim), math.Sin(ang)/float64(dim))
			}
		}
	default:
		return nil, fmt.Errorf("conformance: unknown matrix generator %q", name)
	}
	return m, nil
}

// GenWeights returns the named real k×k weight matrix for PCMM.
func GenWeights(name string, k int) ([][]float64, error) {
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
	}
	switch name {
	case "w-ident":
		for i := range w {
			w[i][i] = 1
		}
	case "w-ramp":
		for r := range w {
			for c := range w[r] {
				w[r][c] = 0.1 * float64((r*k+c)%5-2)
			}
		}
	default:
		return nil, fmt.Errorf("conformance: unknown weight generator %q", name)
	}
	return w, nil
}

// Interpret executes the program on plaintext vectors and returns the
// expected output slots. This is the ground truth every numeric engine is
// compared against.
func Interpret(s *ProgramSpec) ([]complex128, error) {
	slots := s.Slots()
	regs := map[string][]complex128{}
	for _, in := range s.Inputs {
		v, err := GenVector(in.Gen, slots)
		if err != nil {
			return nil, err
		}
		regs[in.Name] = v
	}
	get := func(name string) ([]complex128, error) {
		v, ok := regs[name]
		if !ok {
			return nil, fmt.Errorf("program %s: register %q undefined", s.Name, name)
		}
		return v, nil
	}
	for i, op := range s.Ops {
		a, err := get(op.A)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
		out := make([]complex128, slots)
		switch op.Op {
		case "add", "sub", "mul", "ccmm":
			b, err := get(op.B)
			if err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op.Op, err)
			}
			switch op.Op {
			case "add":
				for j := range out {
					out[j] = a[j] + b[j]
				}
			case "sub":
				for j := range out {
					out[j] = a[j] - b[j]
				}
			case "mul":
				for j := range out {
					out[j] = a[j] * b[j]
				}
			case "ccmm":
				k := isqrt(slots)
				if k*k != slots {
					return nil, fmt.Errorf("op %d: ccmm needs square slot count, got %d", i, slots)
				}
				matMulPacked(out, a, b, k)
			}
		case "neg":
			for j := range out {
				out[j] = -a[j]
			}
		case "conjugate":
			for j := range out {
				out[j] = cmplx.Conj(a[j])
			}
		case "rotate":
			for j := range out {
				out[j] = a[((j+op.K)%slots+slots)%slots]
			}
		case "addconst":
			for j := range out {
				out[j] = a[j] + complex(op.Const, 0)
			}
		case "mulconst":
			for j := range out {
				out[j] = a[j] * complex(op.Const, 0)
			}
		case "mulplain":
			p, err := GenVector(op.Gen, slots)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			for j := range out {
				out[j] = a[j] * p[j]
			}
		case "rotsum", "rotsumext":
			if op.K < 1 || op.K > slots {
				return nil, fmt.Errorf("op %d: rotsum width %d out of range", i, op.K)
			}
			for j := range out {
				var acc complex128
				for r := 0; r < op.K; r++ {
					acc += a[(j+r)%slots]
				}
				out[j] = acc
			}
		case "lintrans":
			m, err := GenMatrix(op.Matrix, slots)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			for j := range out {
				var acc complex128
				for c := range m[j] {
					acc += m[j][c] * a[c]
				}
				out[j] = acc
			}
		case "pcmm":
			k := isqrt(slots)
			if k*k != slots {
				return nil, fmt.Errorf("op %d: pcmm needs square slot count, got %d", i, slots)
			}
			w, err := GenWeights(op.Matrix, k)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			// Column-packed Y = X·W: Y[r][c] = Σ_t X[r][t]·W[t][c].
			for c := 0; c < k; c++ {
				for r := 0; r < k; r++ {
					var acc complex128
					for t := 0; t < k; t++ {
						acc += a[t*k+r] * complex(w[t][c], 0)
					}
					out[c*k+r] = acc
				}
			}
		case "poly":
			if len(op.Coeffs) < 2 {
				return nil, fmt.Errorf("op %d: poly needs degree >= 1", i)
			}
			for j := range out {
				var acc complex128
				for t := len(op.Coeffs) - 1; t >= 0; t-- {
					acc = acc*a[j] + complex(op.Coeffs[t], 0)
				}
				out[j] = acc
			}
		case "bootstrap":
			copy(out, a)
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, op.Op)
		}
		if op.Dst == "" {
			return nil, fmt.Errorf("op %d (%s): no destination register", i, op.Op)
		}
		regs[op.Dst] = out
	}
	return get(s.Output)
}

// matMulPacked writes the column-major packing of X·Z into out, where a and b
// are the column-major packings of X and Z.
func matMulPacked(out, a, b []complex128, k int) {
	for c := 0; c < k; c++ {
		for r := 0; r < k; r++ {
			var acc complex128
			for t := 0; t < k; t++ {
				acc += a[t*k+r] * b[c*k+t]
			}
			out[c*k+r] = acc
		}
	}
}

func isqrt(n int) int {
	k := 1
	for k*k < n {
		k++
	}
	return k
}

// MaxSlotError returns the max absolute difference between got and want.
func MaxSlotError(got, want []complex128) float64 {
	max := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > max {
			max = e
		}
	}
	return max
}
