package experiments

// Golden-regression guard for the reproduced evaluation: the formatted
// Table II, Table III, Fig. 6, Fig. 7 and Table V outputs are snapshotted
// under testdata/ and every run must regenerate them byte-for-byte.
// Performance refactors (like the limb-parallel execution layer) therefore
// cannot silently shift the numbers this repository claims to reproduce.
// After an *intentional* model change, refresh the snapshots with
// `make golden-update` (or `go test ./internal/experiments/ -run TestGolden
// -update`) and review the diff like any other code change.

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshots under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden snapshot.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, refresh with `make golden-update`.",
			name, got, want)
	}
}

func TestGoldenTable2(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", res.Format())
}

func TestGoldenTable3(t *testing.T) {
	res, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3.golden", res.Format())
}

func TestGoldenFig6(t *testing.T) {
	series, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6.golden", FormatFig6(series))
}

func TestGoldenFig7(t *testing.T) {
	entries, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7.golden", FormatFig7(entries))
}

func TestGoldenTable5(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table5.golden", FormatTable5(rows))
}
