package isa

// Fuzz harness for the task-program wire format. The decoder is the trust
// boundary between the host scheduler and whatever bytes arrive on disk or
// over the wire, so it must never panic on corrupted input, and every buffer
// it does accept must survive a Marshal→Unmarshal round trip unchanged and
// go through the simulator without panicking it.

import (
	"testing"

	"hydra/internal/fheop"
	"hydra/internal/sim"
	"hydra/internal/task"
)

// fuzzSimConfigs are the machines every accepted program is simulated on: the
// DTU card and the host-relayed card.
var fuzzSimConfigs = []sim.Config{sim.HydraConfig(), sim.FABConfig()}

func FuzzUnmarshal(f *testing.F) {
	// Seed with valid encodings of varied shapes so the fuzzer starts from
	// deep in the format rather than flailing at the magic check.
	seeds := []*task.Program{sampleProgram(), pingProgram()}

	b := task.NewBuilder(1, 1)
	b.Step("solo")
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 1, "solo")
	seeds = append(seeds, b.Build())

	for _, p := range seeds {
		data, err := Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A program repeating steps by back-reference, and one whose first step
	// names a later one.
	f.Add(refBlob(0, 0, 1, 2))
	f.Add(refBlob(2, 0))
	// A few deliberately broken prefixes to seed the error paths too.
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Add(append(append([]byte{}, Magic[:]...), Version, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted programs must be stable under re-encoding.
		enc, err := Marshal(p)
		if err != nil {
			t.Fatalf("Unmarshal accepted a program Marshal rejects: %v", err)
		}
		back, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded program fails to decode: %v", err)
		}
		if !programsEqual(p, back) {
			t.Fatal("Marshal/Unmarshal round trip changed the program")
		}
		// An accepted program reaches the simulator: it may be refused (a
		// dependency cycle, a negative span) but must not panic it.
		for _, cfg := range fuzzSimConfigs {
			_, _ = sim.Run(p, cfg)
		}
	})
}
