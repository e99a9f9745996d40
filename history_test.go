package hydra

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
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
	for name, limit := range map[string]int64{"DESIGN.md": 49533, "EXPERIMENTS.md": 18871} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its cap of %d: delete stale text first", name, fi.Size(), limit)
		}
	}
}

var (
	docSpan   = regexp.MustCompile("`([^`]*)`")
	goName    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	goWord    = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	docPath   = regexp.MustCompile(`^[A-Za-z0-9_.*-]+(/[A-Za-z0-9_.*-]+)*/?$`)
	fileNamed = regexp.MustCompile(`\.(go|json|jsonl|md|sh|golden|txt|mod)$`)
)

// TestDesignNamesLiveCode keeps DESIGN.md (above its appendix of removals)
// and README.md about the code that exists. Every backticked span is checked:
//   - a path — a span ending in a file extension, or a slash-separated span
//     whose first element names a directory of the module — must name a file
//     or directory, by its whole path or a tail of it (globs allowed);
//   - a Go-like name — an identifier or a dotted chain of them, optionally
//     with "()" — must have its last component occur as a word in some
//     non-generated .go file of the module, bench/ and testdata included.
//
// The word match reads source text, comments included, so it catches a
// deleted or renamed name, not a stale sentence about a live one.
func TestDesignNamesLiveCode(t *testing.T) {
	words := map[string]bool{}
	dirs := map[string]bool{}
	var paths []string // every file and directory, slash-separated, from the root
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		paths = append(paths, filepath.ToSlash(p))
		if d.IsDir() {
			dirs[d.Name()] = true
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_gen.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		for _, w := range goWord.FindAll(src, -1) {
			words[string(w)] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(span string) bool {
		span = strings.TrimSuffix(span, "/")
		k := strings.Count(span, "/") + 1
		for _, p := range paths {
			if parts := strings.Split(p, "/"); len(parts) >= k {
				if ok, _ := path.Match(span, strings.Join(parts[len(parts)-k:], "/")); ok {
					return true
				}
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text, _, _ := strings.Cut(string(data), "\n## Appendix")
		for _, m := range docSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			first, _, nested := strings.Cut(span, "/")
			switch {
			case fileNamed.MatchString(span) || nested && dirs[first]:
				if docPath.MatchString(span) && !exists(span) {
					t.Errorf("%s names path `%s`, which the module does not have", doc, span)
				}
			case goName.MatchString(span):
				name := strings.TrimSuffix(span, "()")
				if !words[name[strings.LastIndex(name, ".")+1:]] {
					t.Errorf("%s names `%s`, which no .go file mentions: say what replaced it, or move it to DESIGN.md's appendix", doc, span)
				}
			}
		}
	}
}
