package conformance

import (
	"flag"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_matrix.json from this run")

// TestConformanceMatrix runs the whole corpus against all five engines,
// fails on any cell outside its program's budget, and compares the pass
// matrix against the checked-in golden file. Under -short the Heavy programs
// (bootstrap) are left out — that reduced matrix is what the CI -race leg
// runs — and the golden comparison covers only the programs that ran.
func TestConformanceMatrix(t *testing.T) {
	h, err := NewHarness(filepath.Join("testdata", "programs"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if len(h.Programs) < 25 {
		t.Errorf("corpus has %d programs, want >= 25", len(h.Programs))
	}

	m, err := h.Run(RunOptions{Short: testing.Short(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Failures() {
		t.Errorf("conformance failure: %s", f)
	}

	golden := filepath.Join("testdata", "golden_matrix.json")
	if *update {
		if testing.Short() {
			t.Fatal("refusing to -update the golden matrix from a -short (reduced) run")
		}
		if t.Failed() {
			t.Fatal("refusing to -update the golden matrix from a failing run")
		}
		if err := WriteGolden(golden, m); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden matrix rewritten: %s", golden)
		return
	}
	g, err := LoadGolden(golden)
	if err != nil {
		t.Fatalf("loading golden matrix (run with -update to create): %v", err)
	}
	for _, v := range CompareGolden(m, g) {
		t.Errorf("golden matrix regression: %s", v)
	}
}

// TestInterpreterSelfConsistency spot-checks the plaintext interpreter
// against hand-computed slots, so matrix failures can be trusted to implicate
// an engine rather than the oracle.
func TestInterpreterSelfConsistency(t *testing.T) {
	spec := &ProgramSpec{
		Name:   "unit",
		Params: ParamSpec{LogN: 5, Levels: 3},
		Inputs: []InputSpec{{Name: "x", Gen: "ramp"}},
		Ops: []OpSpec{
			{Op: "rotate", Dst: "r", A: "x", K: 3},
			{Op: "mulconst", Dst: "m", A: "r", Const: 2},
			{Op: "addconst", Dst: "y", A: "m", Const: 0.5},
		},
		Output: "y",
		Budget: 1,
	}
	got, err := Interpret(spec)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := GenVector("ramp", spec.Slots())
	for j := range got {
		want := x[(j+3)%spec.Slots()]*2 + 0.5
		if e := real(got[j] - want); e > 1e-12 || e < -1e-12 {
			t.Fatalf("slot %d: got %v want %v", j, got[j], want)
		}
	}
}

// TestCompareGolden pins what the golden comparison accepts. A golden "pass"
// may not decay to "skip": a skip entry added to a program's spec must show
// up as a violation until the golden file is re-blessed, not as an unchecked
// cell.
func TestCompareGolden(t *testing.T) {
	golden := map[string]map[string]string{
		"p": {"reference": "pass", "optimized": "pass", "cluster": "pass", "sim": "pass", "ir": "skip"},
		"q": {"reference": "pass"}, // a heavy program a short run leaves out
	}
	row := func(cluster, ir string) map[string]Outcome {
		return map[string]Outcome{
			"reference": {Status: "pass"}, "optimized": {Status: "pass"},
			"cluster": {Status: cluster, Detail: "why"}, "sim": {Status: "pass"}, "ir": {Status: ir},
		}
	}
	for _, tc := range []struct {
		name string
		m    Matrix
		want []string
	}{
		{"all golden passes still pass", Matrix{"p": row("pass", "skip")}, nil},
		{"golden skip now passing is tolerated", Matrix{"p": row("pass", "pass")}, nil},
		{"golden skip now failing is tolerated", Matrix{"p": row("pass", "fail")}, nil},
		{"pass regressed to fail", Matrix{"p": row("fail", "skip")},
			[]string{"p/cluster: golden says pass, got fail (why)"}},
		{"pass decayed to skip", Matrix{"p": row("skip", "skip")},
			[]string{"p/cluster: golden says pass, got skip (why)"}},
		{"program missing from golden", Matrix{"p": row("pass", "skip"), "new": row("pass", "pass")},
			[]string{"new: not in golden matrix (run with -update to bless)"}},
	} {
		if got := CompareGolden(tc.m, golden); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestHarnessFailurePath drives the matrix with a program no engine can run:
// a multiplication chain deeper than its modulus chain. The run itself must
// succeed, every cell must be a "fail" that says why — the hefloat engines
// through the recovered evaluator panic, the three IR-driven columns through
// the compiler's rejection — and closing the harness must leave no goroutine
// of the fleet server behind.
func TestHarnessFailurePath(t *testing.T) {
	spec := &ProgramSpec{
		Name:   "too-deep",
		Params: ParamSpec{LogN: 5, Levels: 2},
		Inputs: []InputSpec{{Name: "x", Gen: "small"}},
		Ops: []OpSpec{
			{Op: "mul", Dst: "a", A: "x", B: "x"},
			{Op: "mul", Dst: "b", A: "a", B: "a"},
			{Op: "mul", Dst: "c", A: "b", B: "b"},
		},
		Output: "c",
		Budget: 1e-3,
	}
	base := runtime.NumGoroutine()
	h := newHarness([]*ProgramSpec{spec})
	m, err := h.Run(RunOptions{})
	h.Close()
	if err != nil {
		t.Fatalf("a failing program must not fail the run: %v", err)
	}
	for _, e := range []string{"reference", "optimized"} {
		if o := m["too-deep"][e]; o.Status != "fail" || !strings.HasPrefix(o.Detail, "panic: ") {
			t.Errorf("%s: want a recovered evaluator panic, got %+v", e, o)
		}
	}
	for _, e := range []string{"cluster", "sim", "ir"} {
		if o := m["too-deep"][e]; o.Status != "fail" || !strings.HasPrefix(o.Detail, "ir compile: ") {
			t.Errorf("%s: want the compile error, got %+v", e, o)
		}
	}
	fails := m.Failures()
	if len(fails) != len(EngineNames) {
		t.Fatalf("want one failure per engine, got %q", fails)
	}
	for i, e := range EngineNames {
		if !strings.HasPrefix(fails[i], "too-deep/"+e+": ") {
			t.Errorf("failure %d: want engine %s, got %q", i, e, fails[i])
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d before, %d after", base, n)
	}
}
