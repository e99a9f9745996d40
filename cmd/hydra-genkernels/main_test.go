package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"
)

// TestGeneratedFileFresh fails while the checked-in internal/ring/ntt_gen.go
// differs from what the emitter produces: someone edited generated code by
// hand, or changed the emitter or the shipped degrees without running
// `go generate ./internal/ring/`.
func TestGeneratedFileFresh(t *testing.T) {
	want, err := emitFile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../internal/ring/ntt_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("internal/ring/ntt_gen.go line %d is %q, the emitter writes %q: run 'go generate ./internal/ring/'", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("internal/ring/ntt_gen.go has %d lines, the emitter writes %d: run 'go generate ./internal/ring/'", len(gl), len(wl))
	}
}

// TestGenerateOnlyIntoRing: outside go generate's run for package ring the
// generator writes nothing and names the command to run; inside it, it
// writes what emitFile returns.
func TestGenerateOnlyIntoRing(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, pkg := range []string{"", "hydra", "main"} {
		err := generate(pkg)
		if err == nil || !strings.Contains(err.Error(), "go generate ./internal/ring/") {
			t.Fatalf("GOPACKAGE=%q: error %v, want one naming 'go generate ./internal/ring/'", pkg, err)
		}
		if _, err := os.Stat("ntt_gen.go"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("GOPACKAGE=%q: ntt_gen.go written (stat: %v)", pkg, err)
		}
	}
	if err := generate("ring"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("ntt_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := emitFile(); !bytes.Equal(got, want) {
		t.Fatal("generate wrote other bytes than emitFile returns")
	}
}
