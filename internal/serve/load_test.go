package serve

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/sim"
	"hydra/internal/task"
)

// tinyBuild is a cheap synthetic job: card 0 computes and broadcasts to the
// rest of the grant, which compute on receipt. Small enough that a load test
// can push hundreds of instances through the simulator quickly.
func tinyBuild(cards int) (*task.Program, error) {
	b := task.NewBuilder(cards, cards)
	b.Step("tiny")
	h := b.Compute(0, fheop.Of(fheop.HAdd, 4, fheop.Rotation, 1), 18, "A")
	if cards > 1 {
		peers := make([]int, 0, cards-1)
		for c := 1; c < cards; c++ {
			peers = append(peers, c)
		}
		recvs := b.Send(0, h, peers, 1<<16, "bcast")
		for i, c := range peers {
			b.ComputeAfterRecv(c, recvs[i], fheop.Of(fheop.HAdd, 4), 18, "B")
		}
	}
	return b.Build(), nil
}

// checkNoGoroutineLeak asserts the goroutine census returns to its baseline
// after the server closes, retrying while runtime internals settle.
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := stdruntime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:stdruntime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoadConcurrentJobsNoLeaks drives 240 concurrent synthetic jobs through
// the sim backend. Every admitted job must complete, and after Close the
// process must hold no serving goroutines. Run under -race this is the
// subsystem's main concurrency certification.
func TestLoadConcurrentJobsNoLeaks(t *testing.T) {
	base := stdruntime.NumGoroutine()

	// Calibrate dilation so each job occupies its cards for ~2ms of real
	// time — enough to force genuine overlap between the 240 jobs without
	// slowing the suite.
	prog, err := tinyBuild(2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(prog, sim.HydraConfig())
	if err != nil {
		t.Fatal(err)
	}
	dilation := 0.002 / ref.Makespan

	s, err := New(Config{
		Fleet:      hw.Fleet{Cards: 16, CardsPerServer: 8},
		Backend:    &SimBackend{Cfg: sim.HydraConfig(), Dilation: dilation},
		QueueDepth: 512,
	})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 240
	demands := []int{1, 2, 4}
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := s.Submit(&Job{
				ID:    fmt.Sprintf("load-%03d", i),
				Cards: demands[i%len(demands)],
				Build: tinyBuild,
			})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := tk.Wait(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			if len(res.Cards) != demands[i%len(demands)] {
				errs[i] = fmt.Errorf("job %s got %d cards, want %d", res.JobID, len(res.Cards), demands[i%len(demands)])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}

	snap := s.Snapshot()
	if snap.Completed != jobs {
		t.Errorf("completed %d jobs, want %d", snap.Completed, jobs)
	}
	if snap.Queued != 0 || snap.Running != 0 || snap.CardsBusy != 0 {
		t.Errorf("gauges not drained: queued=%d running=%d cardsBusy=%d", snap.Queued, snap.Running, snap.CardsBusy)
	}
	if snap.ExecP50 <= 0 || snap.ExecP99 < snap.ExecP50 {
		t.Errorf("latency percentiles look wrong: p50=%g p99=%g", snap.ExecP50, snap.ExecP99)
	}

	s.Close()
	checkNoGoroutineLeak(t, base)
}

// gateBackend blocks every job on a shared gate (honoring cancellation), so
// tests control exactly when cards free up.
type gateBackend struct {
	mu      sync.Mutex
	started []string
	gate    chan struct{}
}

func (b *gateBackend) Name() string { return "gate" }

func (b *gateBackend) Run(ctx context.Context, job *Job, pl sim.Placement) (*ExecReport, error) {
	b.mu.Lock()
	b.started = append(b.started, job.ID)
	b.mu.Unlock()
	select {
	case <-b.gate:
		return &ExecReport{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestSaturationShedsLoad proves the admission bound: with the fleet wedged
// and the queue full, Submit fails fast with ErrOverloaded and the queue
// gauge never exceeds its configured depth — overload sheds, it does not
// queue unboundedly.
func TestSaturationShedsLoad(t *testing.T) {
	base := stdruntime.NumGoroutine()
	const depth = 3
	be := &gateBackend{gate: make(chan struct{})}
	s, err := New(Config{
		Fleet:      hw.Fleet{Cards: 2, CardsPerServer: 2},
		Backend:    be,
		QueueDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One job runs (and wedges on the gate); `depth` more fill the queue.
	var tickets []*Ticket
	for i := 0; i < 1+depth; i++ {
		tk, err := s.Submit(&Job{ID: fmt.Sprintf("fill-%d", i), Cards: 2, Build: tinyBuild})
		if err != nil {
			t.Fatalf("job %d should admit: %v", i, err)
		}
		tickets = append(tickets, tk)
	}

	// Everything past the bound is shed with the typed error.
	const extra = 20
	for i := 0; i < extra; i++ {
		_, err := s.Submit(&Job{ID: fmt.Sprintf("shed-%d", i), Cards: 2, Build: tinyBuild})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("saturated submit %d: got %v, want ErrOverloaded", i, err)
		}
		if q := s.Snapshot().Queued; q > depth {
			t.Fatalf("queue grew past its bound: %d > %d", q, depth)
		}
	}

	snap := s.Snapshot()
	if snap.Rejected != extra {
		t.Errorf("rejected = %d, want %d", snap.Rejected, extra)
	}
	if snap.Queued != depth || snap.Running != 1 {
		t.Errorf("gauges: queued=%d running=%d, want %d/1", snap.Queued, snap.Running, depth)
	}

	// Open the gate: the wedged fleet drains and every admitted job finishes.
	close(be.gate)
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Errorf("admitted job %d failed after drain: %v", i, err)
		}
	}
	s.Drain()
	if snap := s.Snapshot(); snap.Completed != 1+depth {
		t.Errorf("completed = %d, want %d", snap.Completed, 1+depth)
	}

	s.Close()
	checkNoGoroutineLeak(t, base)
}

// TestFleetScaleLoad drives 10^4 jobs through a 1024-card server with
// continuous batching on — the fleet-scale certification of the indexed
// scheduler. Arrivals land through SubmitBatch in bursts (one lock
// acquisition per burst), every admitted job must terminate, the grant
// accounting must balance exactly (completed = grants + coalesced riders),
// and after Close the process must hold no serving goroutines. Run under
// -race this doubles as the concurrency audit of the heap/bitmap hot path.
func TestFleetScaleLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale load test skipped in -short")
	}
	base := stdruntime.NumGoroutine()

	const (
		jobs      = 10000
		burst     = 512
		fleetSize = 1024
	)
	s, err := New(Config{
		Fleet:         hw.Fleet{Cards: fleetSize, CardsPerServer: 8},
		Backend:       &SimBackend{Cfg: sim.HydraConfig()}, // dilation 0: pure scheduler stress
		QueueDepth:    jobs + 1,
		CoalesceLimit: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	type shape struct {
		name  string
		cards int
		key   string // empty = private grants, exercising the no-batch path
	}
	shapes := []shape{{"conv", 2, "conv"}, {"bsgs", 4, "bsgs"}, {"boot", 8, ""}}

	tickets := make([]*Ticket, 0, jobs)
	peak := 0
	for lo := 0; lo < jobs; lo += burst {
		hi := lo + burst
		if hi > jobs {
			hi = jobs
		}
		batch := make([]*Job, 0, hi-lo)
		for i := lo; i < hi; i++ {
			sh := shapes[i%len(shapes)]
			batch = append(batch, &Job{
				ID:       fmt.Sprintf("fleet-%05d", i),
				Cards:    sh.cards,
				BatchKey: sh.key,
				Build:    tinyBuild,
			})
		}
		tks, errs := s.SubmitBatch(batch)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("burst submit %d+%d: %v", lo, i, err)
			}
		}
		tickets = append(tickets, tks...)
		if n := stdruntime.NumGoroutine(); n > peak {
			peak = n
		}
	}

	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
	}
	s.Drain()

	snap := s.Snapshot()
	if snap.Submitted != jobs || snap.Completed != jobs {
		t.Errorf("submitted %d / completed %d, want %d", snap.Submitted, snap.Completed, jobs)
	}
	if snap.Queued != 0 || snap.Running != 0 || snap.CardsBusy != 0 {
		t.Errorf("gauges not drained: queued=%d running=%d cardsBusy=%d", snap.Queued, snap.Running, snap.CardsBusy)
	}
	// Every job left the queue on exactly one grant round: as a leader
	// (grants) or as a rider (coalesced).
	if snap.Grants+snap.Coalesced != jobs {
		t.Errorf("grant accounting: grants %d + coalesced %d != %d jobs", snap.Grants, snap.Coalesced, jobs)
	}
	if snap.Coalesced == 0 {
		t.Error("a keyed 10^4-job stream through 1024 cards should coalesce")
	}
	if snap.Refills == 0 {
		t.Error("sustained same-shape pressure should refill finishing grants")
	}
	if peak <= base {
		t.Errorf("load never ran concurrently: peak goroutines %d, baseline %d", peak, base)
	}

	s.Close()
	checkNoGoroutineLeak(t, base)
}
