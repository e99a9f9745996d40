package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hydra/internal/hw"
	"hydra/internal/sim"
)

// TestPercentileKnownDistributions pins the nearest-rank percentile against
// distributions whose quantiles are known by construction.
func TestPercentileKnownDistributions(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.5, 7},
		{"single-p99", []float64{7}, 0.99, 7},
		{"two-p50", []float64{1, 9}, 0.5, 1},
		{"uniform-1-100-p50", seq(1, 100), 0.5, 50},
		{"uniform-1-100-p99", seq(1, 100), 0.99, 99},
		{"uniform-1-1000-p99", seq(1, 1000), 0.99, 990},
		{"constant-p99", []float64{3, 3, 3, 3, 3}, 0.99, 3},
		{"unsorted-input", []float64{9, 1, 5, 3, 7}, 0.5, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := percentile(tc.samples, tc.q); got != tc.want {
				t.Fatalf("percentile(%v, %v) = %v, want %v", tc.samples, tc.q, got, tc.want)
			}
		})
	}
}

// TestPercentileDoesNotMutateSamples guards the copy-before-sort: callers
// hold the live sample buffer under the metrics lock.
func TestPercentileDoesNotMutateSamples(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	percentile(samples, 0.99)
	for i, want := range []float64{5, 1, 4, 2, 3} {
		if samples[i] != want {
			t.Fatalf("percentile reordered the caller's buffer: %v", samples)
		}
	}
}

// TestSnapshotPercentilesFromLifecycle drives the scheduler through its real
// lifecycle — admit, dispatch, finish — and checks the derived percentiles
// land on known sample points of the skewed distribution.
func TestSnapshotPercentilesFromLifecycle(t *testing.T) {
	c, err := newScheduler(hw.Fleet{Cards: 2, CardsPerServer: 2}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 99 fast jobs (10ms exec) and one slow straggler (1s), queue waits
	// rising linearly 1..100ms.
	for i := 1; i <= 100; i++ {
		if _, err := c.admit(&Job{ID: fmt.Sprint(i), Cards: 2, Build: tinyBuild}, 0); err != nil {
			t.Fatal(err)
		}
		started, _ := c.dispatch(float64(i) / 1000)
		if len(started) != 1 {
			t.Fatalf("job %d: %d grants started, want 1", i, len(started))
		}
		exec := 0.010
		if i == 100 {
			exec = 1
		}
		c.finish(&started[0], float64(i)/1000+exec, exec, nil)
	}
	s := c.snapshot()
	if s.Submitted != 100 || s.Completed != 100 {
		t.Fatalf("lifecycle counters off: %+v", s)
	}
	if s.Queued != 0 || s.Running != 0 || s.CardsBusy != 0 {
		t.Fatalf("gauges should return to zero: %+v", s)
	}
	if got, want := s.QueueWaitP50, 0.050; !approxEq(got, want) {
		t.Fatalf("queue wait p50 = %v, want %v", got, want)
	}
	if got, want := s.QueueWaitP99, 0.099; !approxEq(got, want) {
		t.Fatalf("queue wait p99 = %v, want %v", got, want)
	}
	if got, want := s.ExecP50, 0.010; !approxEq(got, want) {
		t.Fatalf("exec p50 = %v, want %v", got, want)
	}
	// The p99 of 99×10ms + 1×1s is still 10ms under nearest-rank (rank 99
	// of 100); the straggler only shows at p100, which Snapshot doesn't
	// report — pin that the tail sample does NOT leak into p99.
	if got, want := s.ExecP99, 0.010; !approxEq(got, want) {
		t.Fatalf("exec p99 = %v, want %v (straggler must not leak in)", got, want)
	}
}

// TestMetricsConcurrentWriters hammers one server from parallel submitters
// while snapshots race them; run under -race this pins the locking
// discipline (the counters are the scheduler's, guarded by Server.mu), and
// afterwards the counters must balance exactly.
func TestMetricsConcurrentWriters(t *testing.T) {
	s, err := New(Config{
		Fleet:      hw.Fleet{Cards: 8, CardsPerServer: 8},
		Backend:    &SimBackend{Cfg: sim.HydraConfig()},
		QueueDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers = 8
	const perWriter = 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tk, err := s.Submit(&Job{ID: fmt.Sprintf("w%d-%d", w, i), Cards: 1 + i%2, Build: tinyBuild})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					s.Snapshot()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	s.Drain()
	snap := s.Snapshot()
	if want := int64(writers * perWriter); snap.Submitted != want || snap.Completed != want {
		t.Fatalf("submitted %d / completed %d, want %d", snap.Submitted, snap.Completed, want)
	}
	if snap.Queued != 0 || snap.Running != 0 || snap.CardsBusy != 0 {
		t.Fatalf("gauges should balance to zero: %+v", snap)
	}
	if snap.ExecP50 < 0 || snap.ExecP99 < snap.ExecP50 {
		t.Fatalf("percentiles inconsistent: p50=%v p99=%v", snap.ExecP50, snap.ExecP99)
	}
}

func seq(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
