package hydra

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchHistoryWellFormed keeps BENCH_history.jsonl, the only checked-in
// measurement, readable by a tool: every line is one JSON object with the
// commit it was measured at, the day, and a positive finite value for every
// BENCHMARK.json workload × end-to-end metric (scripts/bench_history.sh
// appends them from bench/run.sh's result files).
func TestBenchHistoryWellFormed(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(decl.Workloads) == 0 || len(decl.EndToEnd) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads and %d end-to-end metrics", len(decl.Workloads), len(decl.EndToEnd))
	}
	history, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for sc := bufio.NewScanner(bytes.NewReader(history)); sc.Scan(); {
		lines++
		var entry struct {
			SHA       string                        `json:"sha"`
			Date      string                        `json:"date"`
			Workloads map[string]map[string]float64 `json:"workloads"`
		}
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			t.Errorf("line %d: %v", lines, err)
			continue
		}
		if entry.SHA == "" || entry.Date == "" {
			t.Errorf("line %d: sha %q, date %q", lines, entry.SHA, entry.Date)
		}
		for _, w := range decl.Workloads {
			for _, m := range decl.EndToEnd {
				// A missing metric reads 0; JSON cannot carry NaN or Inf.
				if v := entry.Workloads[w.Name][m.Name]; v <= 0 {
					t.Errorf("line %d: %s %s = %v, want a positive value", lines, w.Name, m.Name, v)
				}
			}
		}
	}
	if lines == 0 {
		t.Error("BENCH_history.jsonl is empty")
	}
}

// TestDocsSize caps DESIGN.md and EXPERIMENTS.md at their sizes when the cap
// was set. A change that needs more room deletes stale text first, so the
// documents hold the current state rather than a log of every change.
func TestDocsSize(t *testing.T) {
	for name, limit := range map[string]int64{"DESIGN.md": 91215, "EXPERIMENTS.md": 18914} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its cap of %d: delete stale text first", name, fi.Size(), limit)
		}
	}
}
