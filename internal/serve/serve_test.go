package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/hw"
	"hydra/internal/sim"
	"hydra/internal/task"
)

func newSimServer(t *testing.T, cards, cps int) *Server {
	t.Helper()
	cfg := sim.HydraConfig()
	s, err := New(Config{
		Fleet:     hw.Fleet{Cards: cards, CardsPerServer: cps},
		Backend:   &SimBackend{Cfg: cfg},
		Estimator: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSubmitRunsSimJob: the basic happy path — a job is admitted, priced by
// the estimator, granted cards, simulated, and its result carries the
// analytic makespan.
func TestSubmitRunsSimJob(t *testing.T) {
	s := newSimServer(t, 8, 8)
	tk, err := s.Submit(&Job{ID: "j1", Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sim" || len(res.Cards) != 2 {
		t.Errorf("result: backend=%q cards=%v", res.Backend, res.Cards)
	}
	if res.SimSeconds <= 0 {
		t.Errorf("sim makespan not recorded: %g", res.SimSeconds)
	}
	if res.EstCost <= 0 {
		t.Errorf("estimator did not price the job: %g", res.EstCost)
	}
	if math.Abs(res.EstCost-res.SimSeconds) > res.SimSeconds {
		t.Errorf("estimate %g wildly off the priced makespan %g", res.EstCost, res.SimSeconds)
	}
}

// TestSubmitValidation: the typed admission failures.
func TestSubmitValidation(t *testing.T) {
	s := newSimServer(t, 4, 4)

	if _, err := s.Submit(&Job{ID: "too-big", Cards: 5, Build: tinyBuild}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("oversized job: got %v, want ErrInfeasible", err)
	}
	if _, err := s.Submit(&Job{ID: "no-builder", Cards: 1}); err == nil {
		t.Error("builderless job admitted")
	}
	if _, err := s.Submit(&Job{Cards: 1, Build: tinyBuild}); err == nil {
		t.Error("unnamed job admitted")
	}

	// A deadline the estimate already rules out is refused at the door.
	late := &Job{ID: "late", Cards: 2, Build: tinyBuild, EstCost: 3600, Deadline: time.Now().Add(time.Second)}
	if _, err := s.Submit(late); !errors.Is(err, ErrDeadline) {
		t.Errorf("unmeetable deadline: got %v, want ErrDeadline", err)
	}

	s.Close()
	if _, err := s.Submit(&Job{ID: "after-close", Cards: 1, Build: tinyBuild}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
}

// TestPriorityOrdering: with the fleet wedged, the high-priority latecomer
// runs before the earlier low-priority job once cards free up.
func TestPriorityOrdering(t *testing.T) {
	be := &gateBackend{gate: make(chan struct{})}
	s, err := New(Config{Fleet: hw.Fleet{Cards: 2, CardsPerServer: 2}, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Submit(&Job{ID: "first", Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.Submit(&Job{ID: "low", Priority: 0, Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(&Job{ID: "high", Priority: 5, Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}

	close(be.gate)
	for _, tk := range []*Ticket{first, low, high} {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	be.mu.Lock()
	order := fmt.Sprint(be.started)
	be.mu.Unlock()
	if order != "[first high low]" {
		t.Errorf("execution order %s, want [first high low]", order)
	}
}

// TestBackfillEndToEnd: a small job lands on the idle cards a ranked-ahead
// big job cannot use, and its result says so.
func TestBackfillEndToEnd(t *testing.T) {
	be := &gateBackend{gate: make(chan struct{})}
	s, err := New(Config{Fleet: hw.Fleet{Cards: 6, CardsPerServer: 6}, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	big1, err := s.Submit(&Job{ID: "big1", Cards: 4, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	big2, err := s.Submit(&Job{ID: "big2", Priority: 5, Cards: 4, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(&Job{ID: "small", Priority: 0, Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}

	close(be.gate)
	res, err := small.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Backfilled {
		t.Error("small job ran on idle cards past a waiting big job but was not marked backfilled")
	}
	if fmt.Sprint(res.Cards) != "[4 5]" {
		t.Errorf("small job cards %v, want the leftover pair [4 5]", res.Cards)
	}
	for _, tk := range []*Ticket{big1, big2} {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimeoutCancelsRunningJob: a wedged job's timeout fires, the ticket
// reports the cancellation, and the freed cards serve the next job.
func TestTimeoutCancelsRunningJob(t *testing.T) {
	be := &gateBackend{gate: make(chan struct{})} // never opened
	s, err := New(Config{Fleet: hw.Fleet{Cards: 2, CardsPerServer: 2}, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wedged, err := s.Submit(&Job{ID: "wedged", Cards: 2, Timeout: 30 * time.Millisecond, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wedged.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged job: got %v, want DeadlineExceeded", err)
	}

	// The cards must be back in the pool: a second full-width job is granted
	// and reaches the backend (where it wedges and times out in turn).
	next, err := s.Submit(&Job{ID: "next", Cards: 2, Timeout: 30 * time.Millisecond, Build: tinyBuild})
	if err != nil {
		t.Fatalf("cards were not recycled after the timeout: %v", err)
	}
	if _, err := next.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("next job: got %v, want DeadlineExceeded", err)
	}
	be.mu.Lock()
	started := fmt.Sprint(be.started)
	be.mu.Unlock()
	if started != "[wedged next]" {
		t.Errorf("backend saw %s, want [wedged next]", started)
	}
	if snap := s.Metrics().Snapshot(); snap.Canceled != 2 {
		t.Errorf("canceled counter = %d, want 2", snap.Canceled)
	}
}

// TestClusterBackendFunctional runs a real distributed CKKS convolution
// through the serving layer and checks the decrypted output against the
// single-card computation — the Backend seam keeps the functional runtime
// and the analytic model interchangeable.
func TestClusterBackendFunctional(t *testing.T) {
	const cards = 2
	rotations := []int{0, 1, 2, 3}
	params := ckks.TestParameters(8, 3)
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rotations, false)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 2)
	decr := ckks.NewDecryptor(params, sk)
	eval := ckks.NewEvaluator(params, rlk, rtks)

	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(math.Sin(float64(i)/3), 0)
	}
	pt, err := enc.EncodeAtLevel(vals, params.DefaultScale(), params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt)

	layer := cluster.ConvLayer{Rotations: rotations}
	for k := range rotations {
		w := make([]complex128, params.Slots())
		for i := range w {
			w[i] = complex(0.1*float64(k+1), 0)
		}
		wpt, err := enc.EncodeAtLevel(w, params.DefaultScale(), ct.Level())
		if err != nil {
			t.Fatal(err)
		}
		layer.Weights = append(layer.Weights, wpt)
	}

	var got *ckks.Ciphertext
	job := &Job{
		ID:    "conv-functional",
		Cards: cards,
		BuildCluster: func(n int) (*ClusterJob, error) {
			progs, err := cluster.BuildConv(n, layer)
			if err != nil {
				return nil, err
			}
			return &ClusterJob{
				Programs: progs,
				Preload: func(cl *cluster.Cluster) error {
					for c := 0; c < n; c++ {
						cl.Load(c, "x", ct)
					}
					return nil
				},
				Collect: func(cl *cluster.Cluster) error {
					out, err := cl.Get(0, "out0")
					got = out
					return err
				},
			}, nil
		},
	}

	s, err := New(Config{
		Fleet:   hw.Fleet{Cards: cards, CardsPerServer: cards},
		Backend: &ClusterBackend{Params: params, Eval: eval},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tk, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "cluster" {
		t.Errorf("backend = %q, want cluster", res.Backend)
	}

	single := eval.Rescale(eval.MulPlain(eval.Rotate(ct, rotations[0]), layer.Weights[0]))
	want := enc.Decode(decr.Decrypt(single))
	dec := enc.Decode(decr.Decrypt(got))
	maxErr := 0.0
	for i := range dec {
		if e := cmplx.Abs(dec[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-5 {
		t.Errorf("distributed conv drifted from single-card: max slot error %g", maxErr)
	}
}

// TestPanickingJobFailsOnlyItself: a backend runs the tenant's own closures,
// so a panic out of one — or a cluster builder that returns no job — must
// fail that job alone. On a fleet both jobs need whole, the healthy job can
// only run if the failed grant retired its cards; every job that ran is
// counted once (completed + failed == grants + coalesced), and Close leaves
// no goroutine behind.
func TestPanickingJobFailsOnlyItself(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name      string
		backend   Backend
		bad, good *Job
		wantErr   string
	}{
		{
			"sim build panics", &SimBackend{Cfg: sim.HydraConfig()},
			&Job{ID: "bad", Cards: 2, Build: func(int) (*task.Program, error) { panic("tenant bug") }},
			&Job{ID: "good", Cards: 2, Build: tinyBuild},
			"panic: tenant bug",
		},
		{
			"cluster builder returns nil", &ClusterBackend{Params: ckks.TestParameters(6, 2)},
			&Job{ID: "bad", Cards: 2, BuildCluster: func(int) (*ClusterJob, error) { return nil, nil }},
			&Job{ID: "good", Cards: 2, BuildCluster: func(n int) (*ClusterJob, error) {
				return &ClusterJob{Programs: make([][]cluster.Instr, n)}, nil
			}},
			"returned no job",
		},
	} {
		s, err := New(Config{Fleet: hw.Fleet{Cards: 2, CardsPerServer: 2}, Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		bad, err := s.Submit(tc.bad)
		if err != nil {
			t.Fatal(err)
		}
		good, err := s.Submit(tc.good)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: bad job: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
		if _, err := good.Wait(context.Background()); err != nil {
			t.Errorf("%s: healthy job on the same server: %v", tc.name, err)
		}
		s.Drain()
		snap := s.Metrics().Snapshot()
		if snap.Failed != 1 || snap.Completed != 1 || snap.Completed+snap.Failed != snap.Grants+snap.Coalesced {
			t.Errorf("%s: completed %d, failed %d, grants %d, coalesced %d; want 1, 1 and every grant accounted for",
				tc.name, snap.Completed, snap.Failed, snap.Grants, snap.Coalesced)
		}
		s.mu.Lock()
		free := s.free.len()
		s.mu.Unlock()
		if free != 2 || snap.CardsBusy != 0 {
			t.Errorf("%s: %d cards free, %d busy after both jobs; want 2 and 0", tc.name, free, snap.CardsBusy)
		}
		s.Close()
	}
	checkNoGoroutineLeak(t, base)
}

// TestSubmitSurvivesPanickingEstimate: with an Estimator configured, Submit
// runs the tenant's Build on the submitting goroutine to price the job. The
// estimate is advisory, so a Build that panics or returns no program leaves
// the job unpriced and admitted; it then fails alone at its grant, as in
// TestPanickingJobFailsOnlyItself.
func TestSubmitSurvivesPanickingEstimate(t *testing.T) {
	base := runtime.NumGoroutine()
	est := sim.HydraConfig()
	for name, build := range map[string]func(int) (*task.Program, error){
		"build panics":      func(int) (*task.Program, error) { panic("tenant bug") },
		"build returns nil": func(int) (*task.Program, error) { return nil, nil },
	} {
		s, err := New(Config{
			Fleet:     hw.Fleet{Cards: 2, CardsPerServer: 2},
			Backend:   &SimBackend{Cfg: sim.HydraConfig()},
			Estimator: &est,
		})
		if err != nil {
			t.Fatal(err)
		}
		badJob := &Job{ID: "bad", Cards: 2, Build: build}
		bad, err := s.Submit(badJob)
		if err != nil {
			t.Fatalf("%s: unpriceable job must be admitted: %v", name, err)
		}
		if badJob.EstCost != 0 {
			t.Errorf("%s: EstCost %g, want 0", name, badJob.EstCost)
		}
		good, err := s.Submit(&Job{ID: "good", Cards: 2, Build: tinyBuild})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Wait(context.Background()); err == nil {
			t.Errorf("%s: bad job completed", name)
		}
		if _, err := good.Wait(context.Background()); err != nil {
			t.Errorf("%s: healthy job: %v", name, err)
		}
		s.Drain()
		if snap := s.Metrics().Snapshot(); snap.Failed != 1 || snap.Completed != 1 {
			t.Errorf("%s: completed %d, failed %d; want 1 and 1", name, snap.Completed, snap.Failed)
		}
		s.Close()
	}
	checkNoGoroutineLeak(t, base)
}

// TestCloseRejectsQueuedJobs: closing the server fails the queued backlog
// with ErrClosed and cancels the running job.
func TestCloseRejectsQueuedJobs(t *testing.T) {
	be := &gateBackend{gate: make(chan struct{})} // never opened
	s, err := New(Config{Fleet: hw.Fleet{Cards: 2, CardsPerServer: 2}, Backend: be})
	if err != nil {
		t.Fatal(err)
	}

	running, err := s.Submit(&Job{ID: "running", Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(&Job{ID: "queued", Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}

	s.Close()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("queued job after close: got %v, want ErrClosed", err)
	}
	if _, err := running.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("running job after close: got %v, want context.Canceled", err)
	}
}

// TestFakeClockDeadlineExpiry drives queue expiry with the server's clock
// hook: a queued job whose deadline passes (by fake time) is shed on the
// next dispatch, without any real waiting.
func TestFakeClockDeadlineExpiry(t *testing.T) {
	be := &gateBackend{gate: make(chan struct{})}
	s, err := New(Config{Fleet: hw.Fleet{Cards: 2, CardsPerServer: 2}, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var mu sync.Mutex
	now := time.Unix(9000, 0)
	s.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	wedge, err := s.Submit(&Job{ID: "wedge", Cards: 2, Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := s.Submit(&Job{ID: "doomed", Cards: 2, Deadline: now.Add(time.Second), Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}

	// Jump the fake clock past the deadline, then free the fleet: dispatch
	// must shed the expired job instead of running it.
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	close(be.gate)

	if _, err := wedge.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Wait(context.Background()); !errors.Is(err, ErrDeadline) {
		t.Errorf("expired job: got %v, want ErrDeadline", err)
	}
	if snap := s.Metrics().Snapshot(); snap.Expired != 1 {
		t.Errorf("expired counter = %d, want 1", snap.Expired)
	}
}
