// Package examples_test smoke-builds and runs the runnable examples, so a
// refactor that silently breaks a quickstart path fails CI rather than the
// next reader. Each example runs via `go run` from the module root with a
// hard timeout and is checked for a line its output contract promises. The
// command-line front ends are held to their flag checks the same way.
package examples_test

import (
	"context"
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// goRun runs `go run ./dir args...` from the module root and returns its
// combined output.
func goRun(dir string, args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"run", "./" + dir}, args...)...)
	cmd.Dir = ".." // module root; the test binary runs in examples/
	return cmd.CombinedOutput()
}

func runExample(t *testing.T, dir string, wantSubstr string) {
	t.Helper()
	out, err := goRun(dir)
	if err != nil {
		t.Fatalf("go run ./%s: %v\n%s", dir, err, out)
	}
	if !strings.Contains(string(out), wantSubstr) {
		t.Fatalf("go run ./%s output missing %q:\n%s", dir, wantSubstr, out)
	}
}

func TestQuickstartExample(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke runs are skipped in short mode")
	}
	runExample(t, "examples/quickstart", "8-card speedup with the paper's mapping")
}

func TestClusterExample(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke runs are skipped in short mode")
	}
	runExample(t, "examples/cluster", "bytes per ciphertext on the wire")
}

func TestBootstrapExample(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke runs are skipped in short mode")
	}
	runExample(t, "examples/bootstrap", "Batch bootstrapping 2 ciphertexts on 16 cards")
}

// TestFrontEndsRejectNonPositiveCards holds every front end with a -cards
// flag to a one-line error naming the flag and exit status 1, not a panic.
func TestFrontEndsRejectNonPositiveCards(t *testing.T) {
	tools := []struct {
		dir  string
		args []string
	}{
		{"cmd/hydrasim", []string{"-trace-json", "-"}},
		{"cmd/hydra-map", nil},
		{"cmd/hydra-params", nil},
	}
	for _, tool := range tools {
		for _, cards := range []string{"0", "-1"} {
			out, err := goRun(tool.dir, append(tool.args, "-cards", cards)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("%s -cards %s: %v, want exit status 1\n%s", tool.dir, cards, err, out)
			}
			if s := string(out); strings.Contains(s, "panic:") || !strings.Contains(s, "-cards "+cards) {
				t.Errorf("%s -cards %s: want an error naming the flag and no panic:\n%s", tool.dir, cards, s)
			}
		}
	}
}
