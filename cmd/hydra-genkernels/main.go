// hydra-genkernels emits the codegen-specialized NTT kernels for the shipped
// ring degrees (internal/ring/ntt_gen.go).
//
// The generator is a compiler-shaped tool, not a text macro: it loads the
// ring package through go/parser + go/types, validates against the checked
// package that every field and helper the emitted kernels touch still exists
// with the expected type (so a refactor of NTTTable breaks generation loudly
// instead of emitting stale kernels), reads the shipped degree list out of
// the ShippedKernelLogNs declaration's AST, and round-trips the emitted
// source through go/parser + go/printer + go/format so a syntactically
// invalid kernel can never reach disk.
//
// Per degree it emits a forward/inverse pair specialized three ways over the
// generic merged kernel:
//
//   - Every stage's block count and stride is a compile-time literal and the
//     rows are addressed through fixed-size array pointers, so the stage
//     loops carry no bounds checks or divisions.
//   - The bit-reverse permutation is fused into a butterfly pass instead of
//     running as its own branchy memory pass: the forward scatters its last
//     stage pair's outputs through brv while canonicalizing, the inverse
//     gathers its first stage pair's inputs through brv. The kernels
//     ping-pong through one pooled scratch row to keep the fused permute
//     out-of-place (a scattered in-place write would destroy unread inputs).
//   - The forward runs the correction-free lazy schedule (see
//     ring.GeneratedQBound): Shoup's lazy product lies in [0, 2q) for any
//     64-bit multiplicand, so for shipped moduli the per-stage conditional
//     corrections vanish and one Barrett reduction in the closing scatter
//     restores canonical residues.
//
// All emitted kernels are bit-identical to the generic merged kernels
// (pinned by ntt_gen_test.go); run `go generate ./internal/ring/` after any
// table or shipped-degree change, and the CI freshness stage keeps the
// checked-in ntt_gen.go from drifting.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "directory of the ring package to generate into")
	out := flag.String("out", "ntt_gen.go", "output file name, relative to -dir")
	flag.Parse()

	if err := run(*dir, *out); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-genkernels:", err)
		os.Exit(1)
	}
}

func run(dir, out string) error {
	fset := token.NewFileSet()
	files, err := loadPackageFiles(fset, dir, out)
	if err != nil {
		return err
	}
	pkg, err := typeCheck(fset, files)
	if err != nil {
		return fmt.Errorf("type-checking %s: %w", dir, err)
	}
	if err := validateKernelContract(pkg); err != nil {
		return fmt.Errorf("ring package drifted from the kernel contract: %w", err)
	}
	logNs, err := shippedLogNs(files)
	if err != nil {
		return err
	}
	src, err := emitFile(fset, logNs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, out), src, 0o644)
}

// loadPackageFiles parses every non-test file of the package that the
// default build compiles (the poisonpool variant of the row pool is left
// out), except the generated output itself (regeneration must not depend on
// the previous generation being type-correct).
func loadPackageFiles(fset *token.FileSet, dir, out string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if e.IsDir() || !ok || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || name == out {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no package files found in %s", dir)
	}
	return files, nil
}

func typeCheck(fset *token.FileSet, files []*ast.File) (*types.Package, error) {
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	return conf.Check("hydra/internal/ring", fset, files, nil)
}

// kernelContract lists everything the emitted kernels reference in the ring
// package, with the type each must have. Validation walks this table against
// the go/types-checked package.
var kernelContract = struct {
	tableFields   map[string]string // NTTTable field -> type
	modulusFields map[string]string // Modulus field -> type
	funcs         map[string]string // package function -> signature
}{
	tableFields: map[string]string{
		"N":                 "int",
		"LogN":              "int",
		"Mod":               "hydra/internal/ring.Modulus",
		"psiMerged":         "[]uint64",
		"psiMergedShoup":    "[]uint64",
		"psiInvMerged":      "[]uint64",
		"psiInvMergedShoup": "[]uint64",
		"brv":               "[]int",
		"nInv":              "uint64",
		"nInvShoup":         "uint64",
		"invLastW":          "uint64",
		"invLastWShoup":     "uint64",
	},
	modulusFields: map[string]string{
		"Q":         "uint64",
		"BarrettHi": "uint64",
	},
	funcs: map[string]string{
		"MulModShoupLazy":          "func(a uint64, w uint64, wShoup uint64, q uint64) uint64",
		"MulModShoup":              "func(a uint64, w uint64, wShoup uint64, q uint64) uint64",
		"registerGeneratedKernels": "func(logN int, fwd hydra/internal/ring.generatedKernel, inv hydra/internal/ring.generatedKernel)",
	},
}

func validateKernelContract(pkg *types.Package) error {
	structFields := func(name string) (map[string]types.Type, error) {
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			return nil, fmt.Errorf("type %s not found", name)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("%s is not a struct", name)
		}
		fields := make(map[string]types.Type, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i).Name()] = st.Field(i).Type()
		}
		return fields, nil
	}

	table, err := structFields("NTTTable")
	if err != nil {
		return err
	}
	for name, want := range kernelContract.tableFields {
		got, ok := table[name]
		if !ok {
			return fmt.Errorf("NTTTable lost field %s (%s)", name, want)
		}
		if got.String() != want {
			return fmt.Errorf("NTTTable.%s is %s, kernels expect %s", name, got, want)
		}
	}
	mod, err := structFields("Modulus")
	if err != nil {
		return err
	}
	for name, want := range kernelContract.modulusFields {
		got, ok := mod[name]
		if !ok {
			return fmt.Errorf("Modulus lost field %s (%s)", name, want)
		}
		if got.String() != want {
			return fmt.Errorf("Modulus.%s is %s, kernels expect %s", name, got, want)
		}
	}
	for name, want := range kernelContract.funcs {
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			return fmt.Errorf("function %s not found", name)
		}
		if got := obj.Type().String(); got != want {
			return fmt.Errorf("%s is %s, kernels expect %s", name, got, want)
		}
	}
	return nil
}

// shippedLogNs extracts the literal elements of ShippedKernelLogNs from the
// package AST, so shipped.go stays the single source of truth for which
// degrees get kernels.
func shippedLogNs(files []*ast.File) ([]int, error) {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "ShippedKernelLogNs" {
					continue
				}
				if len(vs.Values) != 1 {
					return nil, fmt.Errorf("ShippedKernelLogNs must have exactly one value")
				}
				cl, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					return nil, fmt.Errorf("ShippedKernelLogNs must be a composite literal")
				}
				var logNs []int
				for _, el := range cl.Elts {
					bl, ok := el.(*ast.BasicLit)
					if !ok || bl.Kind != token.INT {
						return nil, fmt.Errorf("ShippedKernelLogNs elements must be integer literals")
					}
					v, err := strconv.Atoi(bl.Value)
					if err != nil {
						return nil, err
					}
					if v < 4 || v > 20 {
						return nil, fmt.Errorf("shipped LogN %d outside the supported range [4,20]", v)
					}
					logNs = append(logNs, v)
				}
				if len(logNs) == 0 {
					return nil, fmt.Errorf("ShippedKernelLogNs is empty")
				}
				return logNs, nil
			}
		}
	}
	return nil, fmt.Errorf("ShippedKernelLogNs declaration not found")
}

// emitFile builds the generated source and proves it syntactically valid by
// round-tripping it through go/parser + go/printer before gofmt'ing.
func emitFile(fset *token.FileSet, logNs []int) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by hydra-genkernels. DO NOT EDIT.

// Specialized negacyclic NTT kernels for the shipped ring degrees.
// Regenerate with: go generate ./internal/ring/
//
// Each kernel pins every stage's geometry as compile-time literals, fuses
// the bit-reverse permutation into a butterfly pass (forward: closing
// scatter; inverse: opening gather) via the pooled scratch row, and — for
// the forward — runs the correction-free lazy schedule gated by
// GeneratedQBound, canonicalizing once with a single-word Barrett reduction
// in the closing scatter. Bit-identical to the generic merged kernels.

package ring

import "math/bits"

func init() {
`)
	for _, l := range logNs {
		fmt.Fprintf(&b, "\tregisterGeneratedKernels(%d, genForward%d, genInverse%d)\n", l, 1<<l, 1<<l)
	}
	fmt.Fprintf(&b, "}\n")
	for _, l := range logNs {
		emitForward(&b, l)
		emitInverse(&b, l)
	}

	genFset := token.NewFileSet()
	f, err := parser.ParseFile(genFset, "ntt_gen.go", b.Bytes(), parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("emitted source does not parse: %w", err)
	}
	var printed bytes.Buffer
	if err := printer.Fprint(&printed, genFset, f); err != nil {
		return nil, err
	}
	return format.Source(printed.Bytes())
}

// fwdMidPairs returns the m values of the in-place middle stage pairs of the
// forward network (everything between the opening pass and the fused closing
// scatter at m = N/4).
func fwdMidPairs(logN int) []int {
	first := 4 // even logN: opening pair handled m=1, mids start at 4
	if logN&1 == 1 {
		first = 2 // odd logN: opening radix-2 handled m=1, pairs start at 2
	}
	var ms []int
	for m := first; m < 1<<logN/4; m <<= 2 {
		ms = append(ms, m)
	}
	return ms
}

// invMidPairs returns the m values of the in-place middle stage pairs of the
// inverse network (between the fused opening gather at m = N and the folding
// closing pass).
func invMidPairs(logN int) []int {
	last := 16 // even logN: closing fold pair is m=4
	if logN&1 == 1 {
		last = 8 // odd logN: closing fold is the trailing radix-2
	}
	var ms []int
	for m := 1 << logN / 4; m >= last; m >>= 2 {
		ms = append(ms, m)
	}
	return ms
}

func emitForward(b *bytes.Buffer, logN int) {
	n := 1 << logN
	fmt.Fprintf(b, `
// genForward%d: specialized correction-free forward NTT, N = 2^%d.
func genForward%d(t *NTTTable, a, scratch []uint64) {
	q := t.Mod.Q
	twoQ := q << 1
	bHi := t.Mod.BarrettHi
	ap := (*[%d]uint64)(a)
	sp := (*[%d]uint64)(scratch)
	pm := (*[%d]uint64)(t.psiMerged)
	pms := (*[%d]uint64)(t.psiMergedShoup)
	brv := (*[%d]int)(t.brv)
`, n, logN, n, n, n, n, n, n)

	if logN&1 == 1 {
		// Opening radix-2 stage (m=1), a -> scratch.
		h := n / 2
		fmt.Fprintf(b, `
	// Opening radix-2 stage (m=1): a -> scratch.
	{
		w, ws := pm[1], pms[1]
		for j := 0; j < %d; j++ {
			x := ap[j]
			v := MulModShoupLazy(ap[j+%d], w, ws, q)
			sp[j] = x + v
			sp[j+%d] = x + twoQ - v
		}
	}
`, h, h, h)
	} else {
		// Opening fused stage pair (m=1), a -> scratch.
		tq := n / 4
		fmt.Fprintf(b, `
	// Opening stage pair (m=1, tq=%d): a -> scratch.
	{
		w1, w1s := pm[1], pms[1]
		w2, w2s := pm[2], pms[2]
		w3, w3s := pm[3], pms[3]
		for j := 0; j < %d; j++ {
			x0 := ap[j]
			x1 := ap[j+%d]
			x2 := ap[j+%d]
			x3 := ap[j+%d]
			v := MulModShoupLazy(x2, w1, w1s, q)
			y0 := x0 + v
			y2 := x0 + twoQ - v
			v = MulModShoupLazy(x3, w1, w1s, q)
			y1 := x1 + v
			y3 := x1 + twoQ - v
			v = MulModShoupLazy(y1, w2, w2s, q)
			sp[j] = y0 + v
			sp[j+%d] = y0 + twoQ - v
			v = MulModShoupLazy(y3, w3, w3s, q)
			sp[j+%d] = y2 + v
			sp[j+%d] = y2 + twoQ - v
		}
	}
`, tq, tq, tq, 2*tq, 3*tq, tq, 2*tq, 3*tq)
	}

	for _, m := range fwdMidPairs(logN) {
		tq := n / (4 * m)
		fmt.Fprintf(b, `
	// Stage pair m=%d (tq=%d), in place on scratch.
	for i := 0; i < %d; i++ {
		w1, w1s := pm[%d+i], pms[%d+i]
		w2, w2s := pm[%d+2*i], pms[%d+2*i]
		w3, w3s := pm[%d+2*i+1], pms[%d+2*i+1]
		base := %d * i
		for j := base; j < base+%d; j++ {
			x0 := sp[j]
			x1 := sp[j+%d]
			x2 := sp[j+%d]
			x3 := sp[j+%d]
			v := MulModShoupLazy(x2, w1, w1s, q)
			y0 := x0 + v
			y2 := x0 + twoQ - v
			v = MulModShoupLazy(x3, w1, w1s, q)
			y1 := x1 + v
			y3 := x1 + twoQ - v
			v = MulModShoupLazy(y1, w2, w2s, q)
			sp[j] = y0 + v
			sp[j+%d] = y0 + twoQ - v
			v = MulModShoupLazy(y3, w3, w3s, q)
			sp[j+%d] = y2 + v
			sp[j+%d] = y2 + twoQ - v
		}
	}
`, m, tq, m, m, m, 2*m, 2*m, 2*m, 2*m, 4*tq, tq, tq, 2*tq, 3*tq, tq, 2*tq, 3*tq)
	}

	// Closing stage pair (m = N/4, tq = 1): scratch -> a with the
	// bit-reverse scatter and the canonicalizing Barrett reduction fused in.
	m := n / 4
	fmt.Fprintf(b, `
	// Closing stage pair m=%d (tq=1): scratch -> a, bit-reverse scatter and
	// Barrett canonicalization fused into the writes.
	for d := 0; d < %d; d++ {
		i := brv[d<<2] & %d
		x0 := sp[4*i]
		x1 := sp[4*i+1]
		x2 := sp[4*i+2]
		x3 := sp[4*i+3]
		w1, w1s := pm[%d+i], pms[%d+i]
		w2, w2s := pm[%d+2*i], pms[%d+2*i]
		w3, w3s := pm[%d+2*i+1], pms[%d+2*i+1]
		v := MulModShoupLazy(x2, w1, w1s, q)
		y0 := x0 + v
		y2 := x0 + twoQ - v
		v = MulModShoupLazy(x3, w1, w1s, q)
		y1 := x1 + v
		y3 := x1 + twoQ - v
		v = MulModShoupLazy(y1, w2, w2s, q)
		o0 := y0 + v
		o1 := y0 + twoQ - v
		v = MulModShoupLazy(y3, w3, w3s, q)
		o2 := y2 + v
		o3 := y2 + twoQ - v
		hi0, _ := bits.Mul64(o0, bHi)
		r0 := o0 - hi0*q
		if r0 >= twoQ {
			r0 -= twoQ
		}
		if r0 >= q {
			r0 -= q
		}
		ap[d] = r0
		hi1, _ := bits.Mul64(o1, bHi)
		r1 := o1 - hi1*q
		if r1 >= twoQ {
			r1 -= twoQ
		}
		if r1 >= q {
			r1 -= q
		}
		ap[d+%d] = r1
		hi2, _ := bits.Mul64(o2, bHi)
		r2 := o2 - hi2*q
		if r2 >= twoQ {
			r2 -= twoQ
		}
		if r2 >= q {
			r2 -= q
		}
		ap[d+%d] = r2
		hi3, _ := bits.Mul64(o3, bHi)
		r3 := o3 - hi3*q
		if r3 >= twoQ {
			r3 -= twoQ
		}
		if r3 >= q {
			r3 -= q
		}
		ap[d+%d] = r3
	}
}
`, m, m, m-1, m, m, 2*m, 2*m, 2*m, 2*m, n/2, n/4, 3*n/4)
}

func emitInverse(b *bytes.Buffer, logN int) {
	n := 1 << logN
	nq := n / 4
	fmt.Fprintf(b, `
// genInverse%d: specialized inverse NTT with the bit-reverse gather fused
// into the opening stage pair, N = 2^%d.
func genInverse%d(t *NTTTable, a, scratch []uint64) {
	q := t.Mod.Q
	twoQ := q << 1
	ap := (*[%d]uint64)(a)
	sp := (*[%d]uint64)(scratch)
	pim := (*[%d]uint64)(t.psiInvMerged)
	pims := (*[%d]uint64)(t.psiInvMergedShoup)
	brv := (*[%d]int)(t.brv)
`, n, logN, n, n, n, n, n, n)

	// Opening stage pair (m = N, tt = 1): a -> scratch with the bit-reverse
	// gather fused into the reads.
	fmt.Fprintf(b, `
	// Opening stage pair m=%d (tt=1): a -> scratch, bit-reverse gather
	// fused into the reads.
	for i := 0; i < %d; i++ {
		d := brv[i<<2] & %d
		y0 := ap[d]
		y1 := ap[d+%d]
		y2 := ap[d+%d]
		y3 := ap[d+%d]
		sA0, sA0s := pim[%d+2*i], pims[%d+2*i]
		sA1, sA1s := pim[%d+2*i+1], pims[%d+2*i+1]
		sB, sBs := pim[%d+i], pims[%d+i]
		u0 := y0 + y1
		if u0 >= twoQ {
			u0 -= twoQ
		}
		v0 := MulModShoupLazy(y0+twoQ-y1, sA0, sA0s, q)
		u1 := y2 + y3
		if u1 >= twoQ {
			u1 -= twoQ
		}
		v1 := MulModShoupLazy(y2+twoQ-y3, sA1, sA1s, q)
		s0 := u0 + u1
		if s0 >= twoQ {
			s0 -= twoQ
		}
		sp[4*i] = s0
		sp[4*i+2] = MulModShoupLazy(u0+twoQ-u1, sB, sBs, q)
		s1 := v0 + v1
		if s1 >= twoQ {
			s1 -= twoQ
		}
		sp[4*i+1] = s1
		sp[4*i+3] = MulModShoupLazy(v0+twoQ-v1, sB, sBs, q)
	}
`, n, nq, nq-1, n/2, n/4, 3*n/4, n/2, n/2, n/2, n/2, nq, nq)

	for _, m := range invMidPairs(logN) {
		h := m / 2
		hq := m / 4
		tt := n / m
		fmt.Fprintf(b, `
	// Stage pair m=%d (tt=%d), in place on scratch.
	for i := 0; i < %d; i++ {
		sA0, sA0s := pim[%d+2*i], pims[%d+2*i]
		sA1, sA1s := pim[%d+2*i+1], pims[%d+2*i+1]
		sB, sBs := pim[%d+i], pims[%d+i]
		base := %d * i
		for j := base; j < base+%d; j++ {
			y0 := sp[j]
			y1 := sp[j+%d]
			y2 := sp[j+%d]
			y3 := sp[j+%d]
			u0 := y0 + y1
			if u0 >= twoQ {
				u0 -= twoQ
			}
			v0 := MulModShoupLazy(y0+twoQ-y1, sA0, sA0s, q)
			u1 := y2 + y3
			if u1 >= twoQ {
				u1 -= twoQ
			}
			v1 := MulModShoupLazy(y2+twoQ-y3, sA1, sA1s, q)
			s0 := u0 + u1
			if s0 >= twoQ {
				s0 -= twoQ
			}
			sp[j] = s0
			sp[j+%d] = MulModShoupLazy(u0+twoQ-u1, sB, sBs, q)
			s1 := v0 + v1
			if s1 >= twoQ {
				s1 -= twoQ
			}
			sp[j+%d] = s1
			sp[j+%d] = MulModShoupLazy(v0+twoQ-v1, sB, sBs, q)
		}
	}
`, m, tt, hq, h, h, h, h, hq, hq, 4*tt, tt, tt, 2*tt, 3*tt, 2*tt, tt, 3*tt)
	}

	if logN&1 == 1 {
		// Closing radix-2 stage with the 1/N fold: scratch -> a.
		h := n / 2
		fmt.Fprintf(b, `
	// Closing radix-2 stage with the 1/N fold: scratch -> a.
	{
		nv, nvs := t.nInv, t.nInvShoup
		lw, lws := t.invLastW, t.invLastWShoup
		for j := 0; j < %d; j++ {
			y0 := sp[j]
			y1 := sp[j+%d]
			ap[j] = MulModShoup(y0+y1, nv, nvs, q)
			ap[j+%d] = MulModShoup(y0+twoQ-y1, lw, lws, q)
		}
	}
}
`, h, h, h)
	} else {
		// Closing stage pair (m = 4) with the 1/N fold: scratch -> a.
		tt := n / 4
		fmt.Fprintf(b, `
	// Closing stage pair m=4 (tt=%d) with the 1/N fold: scratch -> a.
	{
		sA0, sA0s := pim[2], pims[2]
		sA1, sA1s := pim[3], pims[3]
		nv, nvs := t.nInv, t.nInvShoup
		lw, lws := t.invLastW, t.invLastWShoup
		for j := 0; j < %d; j++ {
			y0 := sp[j]
			y1 := sp[j+%d]
			y2 := sp[j+%d]
			y3 := sp[j+%d]
			u0 := y0 + y1
			if u0 >= twoQ {
				u0 -= twoQ
			}
			v0 := MulModShoupLazy(y0+twoQ-y1, sA0, sA0s, q)
			u1 := y2 + y3
			if u1 >= twoQ {
				u1 -= twoQ
			}
			v1 := MulModShoupLazy(y2+twoQ-y3, sA1, sA1s, q)
			ap[j] = MulModShoup(u0+u1, nv, nvs, q)
			ap[j+%d] = MulModShoup(u0+twoQ-u1, lw, lws, q)
			ap[j+%d] = MulModShoup(v0+v1, nv, nvs, q)
			ap[j+%d] = MulModShoup(v0+twoQ-v1, lw, lws, q)
		}
	}
}
`, tt, tt, tt, 2*tt, 3*tt, 2*tt, tt, 3*tt)
	}
}
