package serve

import (
	"fmt"
	"testing"
	"time"

	"hydra/internal/hw"
	"hydra/internal/sim"
)

// flatCost is a synthetic pricing function with the standard batch
// amortization shape: base seconds per shape, dilated by a + (1-a)*batch
// with a = 0.4. It keeps the replay unit tests independent of the analytic
// machine model (SimCost has its own test).
func flatCost(base map[string]float64) CostFn {
	return func(job *Job, cards []int, batch int) (float64, error) {
		b, ok := base[job.BatchKey]
		if !ok {
			return 0, fmt.Errorf("no base cost for shape %q", job.BatchKey)
		}
		return b * (0.4 + 0.6*float64(batch)), nil
	}
}

// replayShapes is a conv-heavy mix with stub builders (the synthetic cost
// function never builds programs; validate just needs Build non-nil).
func replayShapes() []Shape {
	stub := tinyBuild
	return []Shape{
		{Name: "conv", Weight: 8, Cards: 2, Priority: 0, Build: stub},
		{Name: "bsgs", Weight: 2, Cards: 4, Priority: 0, Build: stub},
	}
}

func replayFleet(cards int) hw.Fleet {
	return hw.Fleet{Cards: cards, CardsPerServer: 8}
}

var replayBase = map[string]float64{"conv": 0.020, "bsgs": 0.060}

// TestReplayDeterminism: the virtual-time engine is a pure function of
// (workload, config) — two runs of the same seed produce byte-identical
// stats, and a different seed diverges.
func TestReplayDeterminism(t *testing.T) {
	gen := func(seed int64) *ReplayStats {
		w := Workload{Seed: seed, Rate: 400, Shapes: replayShapes()}
		arrivals, err := w.GenerateN(2000)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Replay(arrivals, ReplayConfig{
			Fleet:      replayFleet(64),
			QueueDepth: 256,
			Coalesce:   4,
			Cost:       flatCost(replayBase),
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := gen(11), gen(11)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", gen(12)) {
		t.Fatal("different seeds produced identical replays")
	}
}

// TestReplayConservation checks the job-accounting identities on a saturated
// replay: every offered job is admitted, shed, or refused at admission for a
// deadline it can no longer meet (one arrival in ten); every admitted job
// completes (no deadline can pass in the queue); and utilization stays
// physical.
func TestReplayConservation(t *testing.T) {
	w := Workload{Seed: 3, Rate: 2000, Shapes: replayShapes()} // far beyond capacity
	arrivals, err := w.GenerateN(5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(arrivals); i += 10 {
		arrivals[i].Job.Deadline = instant(arrivals[i].At.Seconds()).Add(-time.Millisecond)
	}
	st, err := Replay(arrivals, ReplayConfig{
		Fleet:      replayFleet(32),
		QueueDepth: 128,
		Coalesce:   1,
		Cost:       flatCost(replayBase),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != 5000 {
		t.Fatalf("offered %d, want 5000", st.Offered)
	}
	if st.Admitted+st.Shed+st.Expired != st.Offered {
		t.Fatalf("admitted %d + shed %d + expired %d != offered %d", st.Admitted, st.Shed, st.Expired, st.Offered)
	}
	if st.Expired != 500 {
		t.Fatalf("expired %d, want the 500 arrivals past their deadline", st.Expired)
	}
	if st.Completed != st.Admitted {
		t.Fatalf("completed %d != admitted %d (no deadline passes in queue)", st.Completed, st.Admitted)
	}
	if st.Shed == 0 {
		t.Fatal("a 2000/s stream into a 32-card fleet must shed load")
	}
	if st.Utilization <= 0 || st.Utilization > 1.0001 {
		t.Fatalf("utilization %v out of (0,1]", st.Utilization)
	}
	if st.Grants == 0 || st.Coalesced != 0 || st.Refills != 0 {
		t.Fatalf("coalesce=1 must not batch: %+v", st)
	}
}

// TestReplayRefusesPastDeadline: admission applies the same deadline rule in
// virtual time as the live server does on the wall clock — an arrival whose
// deadline has already passed is refused and counted expired, never
// admitted. Virtual second t is time.Unix(0, 0) plus t.
func TestReplayRefusesPastDeadline(t *testing.T) {
	late := &Job{ID: "late", BatchKey: "conv", Cards: 2, Build: tinyBuild,
		Deadline: time.Unix(0, 0).Add(500 * time.Millisecond)}
	st, err := Replay([]Arrival{{At: time.Second, Job: late}}, ReplayConfig{
		Fleet: replayFleet(8),
		Cost:  flatCost(replayBase),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != 1 || st.Admitted != 0 || st.Expired != 1 || st.Completed != 0 {
		t.Fatalf("past-deadline arrival: %+v, want offered 1, admitted 0, expired 1", st)
	}
}

// TestReplayCoalescingRaisesThroughput is the continuous-batching
// acceptance check, in-tree: on a conv-heavy saturated workload, the
// coalescing scheduler must complete measurably more jobs per virtual
// second than the per-job-grant ablation, and must actually batch.
func TestReplayCoalescingRaisesThroughput(t *testing.T) {
	run := func(coalesce int) *ReplayStats {
		w := Workload{Seed: 5, Rate: 3000, Shapes: replayShapes()}
		arrivals, err := w.GenerateN(10000)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Replay(arrivals, ReplayConfig{
			Fleet:      replayFleet(64),
			QueueDepth: 1024,
			Coalesce:   coalesce,
			Cost:       flatCost(replayBase),
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	solo, batched := run(1), run(8)
	if batched.Coalesced == 0 || batched.Refills == 0 {
		t.Fatalf("coalesce=8 on a saturated conv stream must batch and refill: %+v", batched)
	}
	if batched.JobsPerSec < solo.JobsPerSec*1.05 {
		t.Fatalf("coalescing did not raise throughput: solo %.1f jobs/s, batched %.1f jobs/s",
			solo.JobsPerSec, batched.JobsPerSec)
	}
}

// TestReplayClosedLoop drives a fixed user population to a completion
// target and checks the closed-loop identities: the replay terminates, the
// goodput tracks the think-time-bounded offered load, and determinism holds.
func TestReplayClosedLoop(t *testing.T) {
	run := func() *ReplayStats {
		st, err := ReplayClosed(400, 3000, 100*time.Millisecond, 21, replayShapes(), ReplayConfig{
			Fleet:      replayFleet(64),
			QueueDepth: 512,
			Coalesce:   4,
			Cost:       flatCost(replayBase),
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run()
	if st.Completed < 3000 {
		t.Fatalf("closed loop stopped early: %d completed", st.Completed)
	}
	if st.Admitted+st.Shed != st.Offered {
		t.Fatalf("admitted %d + shed %d != offered %d", st.Admitted, st.Shed, st.Offered)
	}
	if st.Makespan <= 0 || st.JobsPerSec <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if fmt.Sprintf("%+v", st) != fmt.Sprintf("%+v", run()) {
		t.Fatal("closed-loop replay is not deterministic")
	}
}

// TestSimCostPricesAndCaches exercises the analytic pricing path: a real
// program priced on single-server vs spanning placements must cost more
// when spanning, batch must amortize (batched cost below batch * solo), and
// the memoization must hit for same-signature grants.
func TestSimCostPricesAndCaches(t *testing.T) {
	cost := SimCost(sim.HydraConfig(), 8)
	job := &Job{ID: "t", Tenant: "tiny", BatchKey: "tiny", Cards: 4, Build: tinyBuild}

	local, err := cost(job, []int{0, 1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	span, err := cost(job, []int{6, 7, 8, 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if span <= local {
		t.Fatalf("server-spanning grant (%.6f s) should cost more than local (%.6f s)", span, local)
	}
	b8, err := cost(job, []int{0, 1, 2, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b8 <= local || b8 >= 8*local {
		t.Fatalf("batch-8 cost %.6f s should amortize within (solo, 8*solo) = (%.6f, %.6f)", b8, local, 8*local)
	}
	// Same span signature, different physical cards: must hit the cache and
	// price identically.
	again, err := cost(job, []int{8, 9, 10, 11}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != local {
		t.Fatalf("cache miss on identical signature: %.9f vs %.9f", again, local)
	}
}
