package ckks

import (
	"testing"

	"hydra/internal/ring"
)

// BenchmarkCMultParallel times ciphertext multiplication with relinearization
// at N = 2^14 in forced-serial and default-parallel pool modes. Run with
// -benchmem: the scratch pools should keep per-op allocations low in both
// arms, and the parallel arm should win wall-clock on multi-core machines.
func BenchmarkCMultParallel(b *testing.B) {
	tc := newTestContext(b, 14, 4, []int{1})
	vals := randomComplex(tc.params.Slots(), 11)
	pt, err := encodeMax(tc.enc, vals)
	if err != nil {
		b.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"parallel", false}} {
		b.Run(mode.name, func(b *testing.B) {
			ring.SetSerial(mode.serial)
			defer ring.SetSerial(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.eval.MulRelin(ct, ct)
			}
		})
	}
}
