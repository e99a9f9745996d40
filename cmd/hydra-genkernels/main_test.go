package main

import (
	"bytes"
	"os"
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
