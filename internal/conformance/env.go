package conformance

import (
	"fmt"
	"sort"

	"hydra/internal/ckks"
	"hydra/internal/hefloat"
)

// paramKey groups programs that can share one parameter environment (and
// hence one key generation, the expensive part of the matrix).
type paramKey struct {
	logN, levels, logP, sparse int
}

func keyOf(s *ProgramSpec) paramKey {
	k := paramKey{logN: s.Params.LogN, levels: s.Params.Levels, logP: s.Params.LogP, sparse: s.Params.Sparse}
	if k.logP == 0 {
		k.logP = 50
	}
	return k
}

// Env is one fully keyed CKKS environment, shared by every engine that runs a
// program of its parameter key, so ciphertexts produced by shared code paths
// are bit-comparable across engines.
type Env struct {
	Key     paramKey
	Params  *ckks.Parameters
	Encoder *ckks.Encoder
	PK      *ckks.PublicKey
	SK      *ckks.SecretKey
	Dec     *ckks.Decryptor
	Eval    *ckks.Evaluator

	boot *hefloat.Bootstrapper // lazily built
}

// bootOptions is the one bootstrapper configuration the corpus uses: the
// default K=16 overflow bound (8 double-angle iterations) over a sparse
// secret, matching the repo's bootstrap tests.
var bootOptions = hefloat.BootstrapperOptions{K: 16}

// rotationsFor returns every rotation index the hefloat engines need for the
// given program (BSGS baby/giant steps — one baby step per diagonal where the
// spec sets none — the matmul and bootstrap plans), plus whether they need
// the conjugation key. What the IR-driven columns need is read off the
// compiled program instead (fhir.Program.Rotations); the environment carries
// the union.
func rotationsFor(s *ProgramSpec) (rots []int, conjugate bool, err error) {
	slots := s.Slots()
	set := map[int]bool{}
	add := func(rs ...int) {
		for _, r := range rs {
			if r != 0 {
				set[r] = true
			}
		}
	}
	for _, op := range s.Ops {
		switch op.Op {
		case "rotate":
			add(op.K)
		case "rotsum", "rotsumext":
			for i := 1; i < op.K; i++ {
				add(i)
			}
		case "conjugate":
			conjugate = true
		case "lintrans":
			m, err := GenMatrix(op.Matrix, slots)
			if err != nil {
				return nil, false, err
			}
			lt, err := hefloat.NewLinearTransform(m)
			if err != nil {
				return nil, false, err
			}
			add(lt.RotationsBSGS(babySteps(op, lt))...)
		case "pcmm":
			add(hefloat.PCMMRotations(isqrt(slots))...)
		case "ccmm":
			add(hefloat.CCMMRotations(isqrt(slots))...)
		case "bootstrap":
			conjugate = true
			params, err := newParameters(keyOf(s))
			if err != nil {
				return nil, false, err
			}
			add(hefloat.BootstrapRotations(params, bootOptions)...)
		}
	}
	rots = make([]int, 0, len(set))
	for r := range set {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	return rots, conjugate, nil
}

// newParameters builds the parameter set of a key: modulus chain
// [2^50, 2^45 × levels], scale 2^45.
func newParameters(key paramKey) (*ckks.Parameters, error) {
	logQ := make([]int, 0, key.levels+1)
	logQ = append(logQ, 50)
	for i := 0; i < key.levels; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:  key.logN,
		LogQ:  logQ,
		LogP:  key.logP,
		Scale: 1 << 45,
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: params %+v: %w", key, err)
	}
	return params, nil
}

// buildEnv constructs one environment from fixed seeds.
func buildEnv(key paramKey, rots []int, conjugate bool) (*Env, error) {
	params, err := newParameters(key)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(params, 1)
	var sk *ckks.SecretKey
	if key.sparse > 0 {
		sk = kg.GenSecretKeySparse(key.sparse)
	} else {
		sk = kg.GenSecretKey()
	}
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rots, conjugate)
	return &Env{
		Key:     key,
		Params:  params,
		Encoder: ckks.NewEncoder(params),
		PK:      pk,
		SK:      sk,
		Dec:     ckks.NewDecryptor(params, sk),
		Eval:    ckks.NewEvaluator(params, rlk, rtks),
	}, nil
}

// bootstrapper returns the env's lazily built bootstrapper.
func (e *Env) bootstrapper() (*hefloat.Bootstrapper, error) {
	if e.boot != nil {
		return e.boot, nil
	}
	bt, err := hefloat.NewBootstrapper(e.Params, e.Encoder, e.Eval, bootOptions)
	if err != nil {
		return nil, err
	}
	e.boot = bt
	return bt, nil
}

// encryptInputs encrypts the program's inputs with a fresh deterministic
// encryptor (seed 2). A fresh sampler per program run makes the ciphertexts
// bit-identical across engines, which is what lets the harness compare
// outputs bitwise.
func encryptInputs(e *Env, s *ProgramSpec) (map[string]*ckks.Ciphertext, error) {
	encr := ckks.NewEncryptor(e.Params, e.PK, 2)
	level := e.Params.MaxLevel()
	if s.usesBootstrap() {
		level = 0
	}
	out := make(map[string]*ckks.Ciphertext, len(s.Inputs))
	for _, in := range s.Inputs {
		vals, err := GenVector(in.Gen, s.Slots())
		if err != nil {
			return nil, err
		}
		pt, err := e.Encoder.EncodeAtLevel(vals, e.Params.DefaultScale(), level)
		if err != nil {
			return nil, err
		}
		out[in.Name] = encr.Encrypt(pt)
	}
	return out, nil
}
