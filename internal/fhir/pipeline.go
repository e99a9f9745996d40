package fhir

import "fmt"

// Options configure the pass pipeline. Every optimization always runs; an
// ablation study composes the exported passes itself (cmd/hydra-compile).
type Options struct {
	// Levels is the modulus-chain depth every input arrives at.
	Levels int
}

// Compile runs the optimizing pipeline:
//
//	CSE → Legalize(lazy) → LazyRelin → Hoist → DCE
//
// CSE runs first so Legalize sees each shared rotation once. Legalize runs
// before LazyRelin and Hoist because both passes match on facts (degrees,
// single-use relinearizations at aligned levels) that only exist after
// placement. Hoist runs last: LazyRelin shrinks addition trees of products
// first, and the trees Hoist restructures are what remains.
func Compile(p *Program, opts Options) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = CSE(p)
	p, err := Legalize(p, LegalizeOptions{Levels: opts.Levels})
	if err != nil {
		return nil, err
	}
	p = LazyRelin(p)
	p = Hoist(p)
	p = dce(p)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fhir: pipeline produced an invalid program: %w", err)
	}
	return p, nil
}

// CompileNaive runs only eager legalization — every rescale closed
// immediately, every relinearization in place, every rotation standalone.
// This is the baseline the differential tests and the compile benchmark
// compare against.
func CompileNaive(p *Program, levels int) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return Legalize(p, LegalizeOptions{Levels: levels, Eager: true})
}
