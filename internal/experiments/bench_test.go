package experiments

import (
	"testing"

	"hydra/internal/model"
	"hydra/internal/sim"
)

// BenchmarkHydraLOPT67B times the Table II cell the repository benchmark's
// sim-fleet workload leaves out, Hydra-L × OPT-6.7B, the largest program of
// the table. "cell" is what sim-fleet times per cell (lowering and
// simulation); "sim" is the simulation of the lowered program alone.
//
//	go test -run '^$' -bench HydraLOPT67B -benchtime 3x -benchmem ./internal/experiments
func BenchmarkHydraLOPT67B(b *testing.B) {
	proto, net := HydraL(), model.OPT67B()
	b.Run("cell", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := proto.Run(net); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sim", func(b *testing.B) {
		prog, err := proto.Build(net)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(prog, proto.Sim); err != nil {
				b.Fatal(err)
			}
		}
	})
}
