package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/hw"
	"hydra/internal/serve"
)

// Outcome is one cell of the conformance matrix.
type Outcome struct {
	Status string  `json:"status"` // "pass", "fail" or "skip"
	MaxErr float64 `json:"max_err,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// Matrix is the full program × engine result grid.
type Matrix map[string]map[string]Outcome

// Harness owns the program corpus, each program's one compiled form, and the
// lazily built environments: one per parameter key, plus one fleet server
// fronting its functional cluster backend.
type Harness struct {
	Programs []*ProgramSpec

	byKey    map[paramKey][]*ProgramSpec
	compiled map[*ProgramSpec]*compiled
	envs     map[paramKey]*Env
	servers  map[paramKey]*serve.Server
}

// NewHarness loads and validates the corpus from dir.
func NewHarness(dir string) (*Harness, error) {
	programs, err := LoadPrograms(dir)
	if err != nil {
		return nil, err
	}
	return newHarness(programs), nil
}

func newHarness(programs []*ProgramSpec) *Harness {
	h := &Harness{
		Programs: programs,
		byKey:    map[paramKey][]*ProgramSpec{},
		compiled: map[*ProgramSpec]*compiled{},
		envs:     map[paramKey]*Env{},
		servers:  map[paramKey]*serve.Server{},
	}
	for _, s := range programs {
		k := keyOf(s)
		h.byKey[k] = append(h.byKey[k], s)
	}
	return h
}

// Close shuts down the fleet servers.
func (h *Harness) Close() {
	for _, srv := range h.servers {
		srv.Close()
	}
}

// compiledFor returns the program's compiled IR form, built on first use: one
// frontend translation and one trip through the pass pipeline per program,
// shared by key sizing and by the ir, sim and cluster columns.
func (h *Harness) compiledFor(s *ProgramSpec) *compiled {
	c, ok := h.compiled[s]
	if !ok {
		c = compileSpec(s)
		h.compiled[s] = c
	}
	return c
}

// envFor returns the (lazily built) environment for the program's parameter
// key. The environment carries the union of every rotation key any program
// sharing the key needs on any engine — the hefloat engines' plans and the
// compiled program's own rotation set — so programs can share the expensive
// key generation. A program that does not compile contributes only its
// hefloat needs; its IR-driven cells report the compile error.
func (h *Harness) envFor(s *ProgramSpec) (*Env, error) {
	key := keyOf(s)
	if env, ok := h.envs[key]; ok {
		return env, nil
	}
	rotSet := map[int]bool{}
	conjugate := false
	for _, p := range h.byKey[key] {
		rots, conj, err := rotationsFor(p)
		if err != nil {
			return nil, fmt.Errorf("conformance: rotations for %s: %w", p.Name, err)
		}
		if c := h.compiledFor(p); c.err == nil {
			irRots, irConj := c.prog.Rotations()
			rots, conj = append(rots, irRots...), conj || irConj
		}
		for _, r := range rots {
			rotSet[r] = true
		}
		conjugate = conjugate || conj
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	env, err := buildEnv(key, rots, conjugate)
	if err != nil {
		return nil, err
	}
	h.envs[key] = env
	return env, nil
}

// serverFor returns the fleet server that fronts the environment's cluster
// backend: four cards, two per server, so every 2-card conformance grant can
// land intra- or cross-server depending on scheduler state.
func (h *Harness) serverFor(env *Env) (*serve.Server, error) {
	if srv, ok := h.servers[env.Key]; ok {
		return srv, nil
	}
	srv, err := serve.New(serve.Config{
		Fleet:          hw.Fleet{Cards: 4, CardsPerServer: 2},
		Backend:        &serve.ClusterBackend{Params: env.Params, Eval: env.Eval},
		DefaultTimeout: 10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	h.servers[env.Key] = srv
	return srv, nil
}

// RunOptions tune a matrix run.
type RunOptions struct {
	// Short leaves out programs marked Heavy (the CI -race leg runs this way).
	Short bool
	// Logf, when set, receives one line per (program, engine) cell.
	Logf func(format string, args ...any)
}

// Run executes the whole corpus against all five engines and returns the
// matrix. Engine failures (including panics from the evaluator layer, and a
// program the compiler rejects) land in the matrix as "fail" cells rather
// than aborting the run; only harness-level problems (unloadable corpus,
// unbuildable environments) return an error. Under Short, Heavy programs are
// left out of the matrix altogether, so every "skip" cell that does appear is
// one the program's spec declares.
func (h *Harness) Run(opts RunOptions) (Matrix, error) {
	m := Matrix{}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, s := range h.Programs {
		if opts.Short && s.Heavy {
			logf("%-24s all engines: left out (heavy program, short mode)", s.Name)
			continue
		}
		expected, err := Interpret(s)
		if err != nil {
			return nil, fmt.Errorf("conformance: interpreting %s: %w", s.Name, err)
		}
		env, err := h.envFor(s)
		if err != nil {
			return nil, err
		}
		srv, err := h.serverFor(env)
		if err != nil {
			return nil, err
		}
		c := h.compiledFor(s)

		var refCt, clusterCt *ckks.Ciphertext
		row := map[string]Outcome{}
		cells := map[string]func() Outcome{
			"reference": func() Outcome {
				ct, err := runGuarded(func() (*ckks.Ciphertext, error) { return runHEFloat(env, s, true) })
				refCt = ct
				return checkCiphertext(env, ct, err, expected, s)
			},
			"optimized": func() Outcome {
				ct, err := runGuarded(func() (*ckks.Ciphertext, error) { return runHEFloat(env, s, false) })
				o := checkCiphertext(env, ct, err, expected, s)
				if !s.BitExact || o.Status != "pass" || row["reference"].Status != "pass" {
					return o
				}
				if !ct.Equal(refCt) {
					return Outcome{Status: "fail", MaxErr: o.MaxErr,
						Detail: "optimized output not bit-identical to reference (program is pinned bit-exact)"}
				}
				o.Detail = "bit-identical to reference"
				return o
			},
			"cluster": func() Outcome {
				ct, err := runGuarded(func() (*ckks.Ciphertext, error) { return runCluster(env, srv, c, s) })
				clusterCt = ct
				return checkCiphertext(env, ct, err, expected, s)
			},
			"sim": func() Outcome {
				detail, err := runGuarded(func() (string, error) { return runSim(c, s) })
				if err != nil {
					return Outcome{Status: "fail", Detail: err.Error()}
				}
				return Outcome{Status: "pass", Detail: detail}
			},
			"ir": func() Outcome {
				ct, err := runGuarded(func() (*ckks.Ciphertext, error) { return runIR(env, c, s) })
				o := checkCiphertext(env, ct, err, expected, s)
				if o.Status != "pass" || row["cluster"].Status != "pass" {
					return o
				}
				if !ct.Equal(clusterCt) {
					return Outcome{Status: "fail", MaxErr: o.MaxErr,
						Detail: "ir output not bit-identical to the cluster's (one partitioned evaluator must match the whole)"}
				}
				o.Detail = "bit-identical to cluster"
				return o
			},
		}
		m[s.Name] = row
		for _, e := range EngineNames { // reference before optimized, cluster before ir
			if reason, ok := s.Skip[e]; ok {
				row[e] = Outcome{Status: "skip", Detail: reason}
				logf("%-24s %-10s skip  (%s)", s.Name, e, reason)
				continue
			}
			o := cells[e]()
			row[e] = o
			if o.Status == "pass" {
				logf("%-24s %-10s pass  maxerr=%.3g  %s", s.Name, e, o.MaxErr, o.Detail)
			} else {
				logf("%-24s %-10s FAIL  %s", s.Name, e, o.Detail)
			}
		}
	}
	return m, nil
}

// runGuarded converts evaluator-layer panics (level underflow, missing keys)
// into engine failures so one bad program cannot abort the matrix.
func runGuarded[T any](f func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// checkCiphertext decrypts ct in its environment and scores it against the
// interpreter's expected slots under the program's precision budget.
func checkCiphertext(env *Env, ct *ckks.Ciphertext, err error, expected []complex128, s *ProgramSpec) Outcome {
	if err != nil {
		return Outcome{Status: "fail", Detail: err.Error()}
	}
	if ct == nil {
		return Outcome{Status: "fail", Detail: "engine returned no ciphertext"}
	}
	got := env.Encoder.Decode(env.Dec.Decrypt(ct))
	maxErr := MaxSlotError(got, expected)
	if maxErr > s.Budget {
		return Outcome{Status: "fail", MaxErr: maxErr,
			Detail: fmt.Sprintf("max slot error %.3g exceeds budget %.3g", maxErr, s.Budget)}
	}
	return Outcome{Status: "pass", MaxErr: maxErr}
}

// Statuses projects the matrix down to the status strings the golden file
// records.
func (m Matrix) Statuses() map[string]map[string]string {
	out := make(map[string]map[string]string, len(m))
	for prog, row := range m {
		pr := make(map[string]string, len(row))
		for eng, o := range row {
			pr[eng] = o.Status
		}
		out[prog] = pr
	}
	return out
}

// Failures lists every failing (program, engine) cell, sorted.
func (m Matrix) Failures() []string {
	var out []string
	for _, prog := range sortedKeys(m) {
		for _, eng := range EngineNames {
			if o, ok := m[prog][eng]; ok && o.Status == "fail" {
				out = append(out, fmt.Sprintf("%s/%s: %s", prog, eng, o.Detail))
			}
		}
	}
	return out
}

// LoadGolden reads the checked-in golden status matrix.
func LoadGolden(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("conformance: golden matrix %s: %w", path, err)
	}
	return g, nil
}

// WriteGolden writes the matrix's statuses as the new golden file.
func WriteGolden(path string, m Matrix) error {
	data, err := json.MarshalIndent(m.Statuses(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareGolden checks the run against the golden matrix: every golden
// "pass" cell of a program this run executed must still pass — a regression
// to "fail" is a violation, and so is a decay to "skip" (a skip entry added
// to a program's spec) until the golden file is re-blessed — and every
// executed program must appear in the golden file so the corpus cannot
// silently grow without re-blessing. Programs a short run left out are not in
// m and are not checked. It returns the list of violations.
func CompareGolden(m Matrix, golden map[string]map[string]string) []string {
	var bad []string
	for _, prog := range sortedKeys(m) {
		grow, ok := golden[prog]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: not in golden matrix (run with -update to bless)", prog))
			continue
		}
		for _, eng := range EngineNames {
			o, ok := m[prog][eng]
			if ok && grow[eng] == "pass" && o.Status != "pass" {
				bad = append(bad, fmt.Sprintf("%s/%s: golden says pass, got %s (%s)", prog, eng, o.Status, o.Detail))
			}
		}
	}
	return bad
}
