package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, seconds: 0.2, trace: trace, scale: "smoke", outDir: t.TempDir(), spoil: -1}
}

// A run reports exactly the names BENCHMARK.json lists, end-to-end from the
// untraced run and per-layer from the traced one, with its units, and the
// result line is the last line it prints.
func TestRunsEmitExactlyTheNamesOfBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}

	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, name, traced)
			var out bytes.Buffer
			line, err := execute(cfg, func() workload { return newWorkload(name, true) }, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, line.Correct, line.Attempted, line.Failed, out.String())
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			for n, v := range line.Metrics {
				if unit, ok := want[n]; !ok {
					t.Errorf("%s traced=%v: reports %q, which BENCHMARK.json does not list", name, traced, n)
				} else if unit != v.Unit {
					t.Errorf("%s traced=%v: %q in %q, BENCHMARK.json says %q", name, traced, n, v.Unit, unit)
				}
			}
			for n := range want {
				if _, ok := line.Metrics[n]; !ok {
					t.Errorf("%s traced=%v: does not report %q", name, traced, n)
				}
			}
			if !traced {
				for n, v := range line.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %q reads %v", name, n, v.Value)
					}
				}
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s traced=%v: last line is not the result: %v", name, traced, err)
			}
			file := "result-" + name + ".json"
			if traced {
				file = "result-" + name + "-traced.json"
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
			data, err := os.ReadFile(filepath.Join(cfg.outDir, file))
			if err != nil {
				t.Fatal(err)
			}
			var rf resultFile
			if err := json.Unmarshal(data, &rf); err != nil {
				t.Fatal(err)
			}
			p := rf.Provenance
			if p.GitSHA == "" || p.GoVersion == "" || p.GOMAXPROCS < 1 || p.NProc < 1 || p.CPUModel == "" || p.Seed != cfg.seed || p.RefMS != refMS || !(p.RefMedianMS > 0) {
				t.Errorf("%s traced=%v: provenance incomplete: %+v", name, traced, p)
			}
		}
	}
}

// A deliberately wrong output is a failed op, counted against the ops
// attempted; the run still prints its result line, and it is not correct.
func TestSpoiledOutputCountsAsFailedOp(t *testing.T) {
	for _, name := range workloadNames {
		cfg := smokeConfig(t, name, false)
		cfg.spoil = 1
		var out bytes.Buffer
		line, err := execute(cfg, func() workload { return newWorkload(name, true) }, &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if line.Correct || line.Failed != 1 || line.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want one failed op", name, line.Correct, line.Attempted, line.Failed)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !strings.HasPrefix(lines[len(lines)-1], `{"correct":false,`) {
			t.Errorf("%s: last line %q is not a failing result line", name, lines[len(lines)-1])
		}
	}
}

// panicky is a workload whose second op panics inside a layer.
type panicky struct{ workload }

func (p panicky) op(b *bench) error {
	if b.opIndex == 1 {
		var m map[string]int
		m["boom"] = 1
	}
	return p.workload.op(b)
}

func TestPanicIsRecoveredIntoFailedOp(t *testing.T) {
	cfg := smokeConfig(t, "serve-replay", false)
	line, err := execute(cfg, func() workload { return panicky{newWorkload("serve-replay", true)} }, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want the panic counted as one failed op", line.Correct, line.Failed)
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10.5, 9.25, 11, 10, 12.75, 9.5, 10.25, 10, 11.5, 10.75}, [3]float64{9.875, 10.375, 11.125}},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, [3]float64{2, 5, 8}},
		{[]float64{2, 2, 2, 2}, [3]float64{2, 2, 2}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, Python gives %v", c.in, got, c.want)
		}
	}
	ten := cases[2].in
	if got, want := spread(ten), (11.125-9.875)/10.375; math.Abs(got-want) > 1e-15 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, pct := tail(v); got != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v (p%v), want 90 (p90)", got, pct)
	}
	if got, pct := tail(v[:10]); got != 5.5 || pct != 50 {
		t.Errorf("tail of ten samples = %v (p%v), want the median", got, pct)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "ckks.encode", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "fhir.evaluate", Parent: 0, Start: ms(25), End: ms(70)}, // overlaps encode by 5
		{Name: "ckks.rotate", Parent: 2, Start: ms(30), End: ms(50)},
		{Name: "ckks.decrypt_decode", Parent: 0, Start: ms(90), End: ms(120)}, // runs past its parent
	}
	want := []time.Duration{ms(100 - 60 - 10), ms(20), ms(25), ms(20), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAndNilRecordsNothing(t *testing.T) {
	var none *tracer
	none.beginOp(0)
	none.end(none.begin("x"))
	if none.referenced("x") != nil || none.mark() != 0 {
		t.Error("a nil tracer recorded something")
	}
	tr := newTracer()
	tr.beginOp(3)
	a := tr.begin("bench.op")
	b := tr.begin("ckks.encode")
	tr.end(b)
	tr.end(a)
	tr.setFactor(0, 2)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || tr.spans[b].Op != 3 {
		t.Errorf("spans not nested: %+v", tr.spans)
	}
	if got := tr.referenced("ckks.encode"); len(got) != 1 || got[0] != 2*tr.spans[b].ms() {
		t.Errorf("referenced = %v", got)
	}
	if tr.spans[b].layer() != "ckks" || tr.spans[a].layer() != "bench" {
		t.Errorf("layers: %q %q", tr.spans[b].layer(), tr.spans[a].layer())
	}
}

// The reference kernel stays inside the lazy range and does the same work on
// every reading: its state after n readings is a fixed function of n.
func TestReferenceKernelIsDeterministicAndInRange(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	for i := 0; i < 3; i++ {
		if ms := a.read(); !(ms > 0) {
			t.Fatalf("reading %v", ms)
		}
		b.read()
	}
	if a.x != b.x {
		t.Error("two kernels diverged")
	}
	for i, v := range a.x {
		if v >= refTwoQ {
			t.Fatalf("x[%d] = %d left [0, 2q)", i, v)
		}
	}
}
