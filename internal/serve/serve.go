// Package serve is the multi-tenant serving layer over the Hydra card pool:
// the control plane that turns the repo's one-job-at-a-time execution into a
// datacenter-style fleet. Procedure 2 of the paper schedules a single
// inference across all cards of one machine; serve extends it to
// many-jobs-many-cards — FHE inference jobs arrive with a priority, deadline
// and card demand, pass bounded admission control, and a work-conserving
// fleet scheduler partitions the physical card pool across the jobs that are
// running concurrently.
//
// The moving parts:
//
//   - Lifecycle (scheduler, sched.go): every decision a job meets — admit,
//     dispatch, finish — is made once, by one type that owns the queue, the
//     card pool, the coalesce bound and the counters. The live Server drives
//     it under its mutex on the wall clock; Replay drives it from an event
//     loop on a virtual clock.
//   - Admission (admitQueue): a bounded queue ordered by priority, then
//     deadline, then arrival, indexed by a rank heap, a deadline heap and
//     per-batch-key heaps so dispatch never scans. When it is full, Submit
//     fails fast with ErrOverloaded instead of queueing unboundedly —
//     saturation sheds load at the front door, it does not grow memory. A
//     job whose Deadline is closer than its EstCost is refused at the door.
//     SubmitBatch admits a whole arrival batch under one lock acquisition.
//   - Allocation (freeList): a job granted n cards gets the card set
//     minimizing server span, because a job confined to one server pays only
//     in-server switch hops for its intra-job broadcasts (sim.RunOn prices
//     the difference). The pool is a per-server bitmap with free-count
//     buckets — O(servers) per grant at any fleet size.
//   - Backfill: when the best-ranked waiting job does not fit the free
//     cards, smaller jobs behind it may run first. The pool never idles
//     while any waiting job fits (work conservation).
//   - Continuous batching (Config.CoalesceLimit): compatible queued jobs
//     (same Job.BatchKey and demand) coalesce onto one card grant and run
//     as a single batched execution, and a finishing grant refills from the
//     queue — the cards go straight to the next compatible job instead of
//     bouncing through the free list. CoalesceLimit <= 1 keeps the classic
//     per-job-grant path as the ablation baseline.
//   - Execution (Backend): the same job runs against the analytic simulator
//     (SimBackend — capacity planning, load tests) or the functional CKKS
//     cluster (ClusterBackend — end-to-end validation), behind one
//     interface. Every job runs under a context assembled from its timeout
//     and deadline; cancellation propagates into the card engines.
//   - Observability (Server.Snapshot): the scheduler's admission, grant and
//     outcome counters, queued/running/cards-busy gauges and queue-wait and
//     execution-latency percentiles; cmd/hydra-serve prints them as its
//     report. Replay fills ReplayStats from the same counters.
//   - Scale projection (Replay, ReplayClosed): the same lifecycle driven in
//     virtual time by a discrete-event loop — saturation curves for
//     thousand-card fleets and 10^4+ job traces in milliseconds of wall
//     clock.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hydra/internal/hw"
	"hydra/internal/sim"
)

// Typed admission failures. Submit wraps these so callers can errors.Is.
var (
	// ErrOverloaded is graceful rejection under saturation: the admission
	// queue is full, so the job is shed instead of queued unboundedly.
	ErrOverloaded = errors.New("serve: overloaded: admission queue full")
	// ErrClosed reports submission to (or abandonment by) a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrInfeasible reports a job whose card demand exceeds the whole fleet.
	ErrInfeasible = errors.New("serve: job demands more cards than the fleet has")
	// ErrDeadline reports a job whose deadline has already passed, or cannot
	// be met even if the job started immediately (per its estimated cost).
	ErrDeadline = errors.New("serve: deadline cannot be met")
)

// Config describes a serving deployment.
type Config struct {
	// Fleet is the physical card pool being scheduled.
	Fleet hw.Fleet
	// Backend executes granted jobs.
	Backend Backend
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	QueueDepth int
	// DefaultTimeout caps jobs that carry no timeout of their own
	// (0 = uncapped).
	DefaultTimeout time.Duration
	// CoalesceLimit bounds the jobs sharing one card grant (continuous
	// batching). 0 and 1 grant per job — the classic path, kept as the
	// flag-selectable ablation baseline. k > 1 coalesces up to k compatible
	// queued jobs (same Job.BatchKey and card demand) into one batched
	// execution per grant, and lets a finishing grant refill from the queue
	// without a free-list round trip. A grant's job count reaches
	// Backend.Run as its batch, which SimBackend prices by batchFactor; New
	// refuses k > 1 with ClusterBackend, which has no batched datapath.
	CoalesceLimit int
}

// DefaultQueueDepth is the admission bound when Config.QueueDepth is zero.
const DefaultQueueDepth = 64

// Server schedules jobs over the card pool: it drives the grant lifecycle
// (scheduler, sched.go) under one mutex and runs each grant on a goroutine.
type Server struct {
	cfg     Config
	backend Backend

	mu     sync.Mutex
	cond   *sync.Cond // signaled whenever a grant retires or the server closes
	sched  *scheduler
	closed bool

	wg sync.WaitGroup // one entry per in-flight grant goroutine

	baseCtx   context.Context
	cancelAll context.CancelFunc

	now func() time.Time // clock hook (tests use a fake clock)
}

// New builds a server over the configured fleet.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: config needs a backend")
	}
	if _, ok := cfg.Backend.(*ClusterBackend); ok && cfg.CoalesceLimit > 1 {
		return nil, fmt.Errorf("serve: the cluster backend runs one job per grant; CoalesceLimit %d needs <= 1", cfg.CoalesceLimit)
	}
	sched, err := newScheduler(cfg.Fleet, cfg.QueueDepth, cfg.CoalesceLimit)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, backend: cfg.Backend, sched: sched, now: time.Now}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	return s, nil
}

// Snapshot copies the scheduler's counters, gauges and percentiles.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.snapshot()
}

// Submit admits a job. It returns immediately with a Ticket tracking the
// job's lifecycle, or a typed error: ErrOverloaded when the admission queue
// is full, ErrInfeasible when the demand can never fit the fleet, ErrDeadline
// when the deadline is already unmeetable, ErrClosed after Close.
func (s *Server) Submit(job *Job) (*Ticket, error) {
	tks, errs := s.SubmitBatch([]*Job{job})
	return tks[0], errs[0]
}

// SubmitBatch admits a batch of jobs under a single scheduler lock
// acquisition, followed by one dispatch pass over the whole batch — the
// batched-admission fast path for bursty arrival streams, where per-job
// Submit would pay a lock round trip and a dispatch pass per arrival.
// The returned slices align with jobs: exactly one of tickets[i], errs[i]
// is non-nil. Jobs are considered in slice order (it decides FIFO ties).
func (s *Server) SubmitBatch(jobs []*Job) ([]*Ticket, []error) {
	tickets := make([]*Ticket, len(jobs))
	errs := make([]error, len(jobs))
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	admitted := false
	for i, job := range jobs {
		if s.closed {
			s.sched.rejected++
			errs[i] = ErrClosed
			continue
		}
		p, err := s.sched.admit(job, now)
		if err != nil {
			errs[i] = err
			continue
		}
		p.ticket = newTicket(job.ID)
		tickets[i] = p.ticket
		admitted = true
	}
	if admitted {
		s.launch(s.sched.dispatch(now))
	}
	return tickets, errs
}

// clock reads the server clock in scheduler seconds.
func (s *Server) clock() float64 { return seconds(s.now()) }

// launch runs each fresh grant on its own goroutine and fails the jobs that
// expired in the queue. Callers hold s.mu.
func (s *Server) launch(started []grant, expired []*pending) {
	for _, p := range expired {
		p.ticket.complete(nil, fmt.Errorf("serve: job %s expired in queue: %w", p.job.ID, ErrDeadline))
	}
	for _, g := range started {
		s.wg.Add(1)
		go s.runGrant(g)
	}
}

// jobContext assembles a job's execution context from the server base
// context, the job timeout (or server default) and the job deadline.
func (s *Server) jobContext(job *Job) (context.Context, context.CancelFunc) {
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	timeout := job.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	if !job.Deadline.IsZero() {
		dctx, dcancel := context.WithDeadline(ctx, job.Deadline)
		prev := cancel
		ctx, cancel = dctx, func() { dcancel(); prev() }
	}
	return ctx, cancel
}

// runGrant executes a grant: the leader's program runs once per batch on the
// granted card set (riders are interchangeable work by the BatchKey
// contract), every ticket on the grant completes, and the scheduler then
// either refills the grant — same cards, next compatible batch, no free-list
// round trip, same goroutine — or retires its cards to the pool.
func (s *Server) runGrant(g grant) {
	defer s.wg.Done()
	for g.batch != nil {
		done := g
		lead := done.batch[0]
		ctx, cancel := s.jobContext(lead.job)
		started := time.Now()
		// The backend runs the tenant's own Build / BuildCluster / Preload /
		// Collect closures: a panic out of it is this job's failure, and the
		// grant below still retires its cards.
		rep, err := func() (rep *ExecReport, err error) {
			defer func() {
				if r := recover(); r != nil {
					rep, err = nil, fmt.Errorf("panic: %v", r)
				}
			}()
			pl := sim.Placement{Cards: done.cards, CardsPerServer: s.cfg.Fleet.CardsPerServer}
			return s.backend.Run(ctx, lead.job, pl, len(done.batch))
		}()
		elapsed := time.Since(started)
		cancel()

		s.mu.Lock()
		s.launch(s.sched.finish(&g, s.clock(), elapsed.Seconds(), err))
		if g.batch == nil {
			s.cond.Broadcast()
		}
		s.mu.Unlock()

		for _, p := range done.batch {
			if err != nil {
				p.ticket.complete(nil, fmt.Errorf("serve: job %s: %w", p.job.ID, err))
				continue
			}
			res := &Result{
				JobID:      p.job.ID,
				Backend:    s.backend.Name(),
				Cards:      done.cards,
				Backfilled: done.backfill,
				Refilled:   done.refill,
				Batch:      len(done.batch),
				QueueWait:  started.Sub(realOrZero(p.submitted, started)),
				ExecTime:   elapsed,
				EstCost:    p.job.EstCost,
			}
			if rep != nil {
				res.SimSeconds = rep.SimSeconds
			}
			p.ticket.complete(res, nil)
		}
	}
}

// realOrZero guards QueueWait against fake clocks: when the submission stamp
// comes from a test clock unrelated to the wall clock, the wait is reported
// as zero rather than as a nonsense difference.
func realOrZero(submitted, started time.Time) time.Time {
	if submitted.After(started) {
		return started
	}
	return submitted
}

// Drain blocks until the queue is empty and no grant is running. Admission
// stays open; callers stop submitting before draining.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && (s.sched.q.len() > 0 || s.sched.running > 0) {
		s.cond.Wait()
	}
}

// Close rejects the queued jobs, cancels the running ones, and waits for
// every grant goroutine to exit. After Close returns the server holds no
// goroutines and accepts no work.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, p := range s.sched.q.drain() {
		s.sched.rejected++
		p.ticket.complete(nil, fmt.Errorf("serve: job %s: %w", p.job.ID, ErrClosed))
	}
	s.cancelAll()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Ticket tracks one admitted job.
type Ticket struct {
	JobID string
	done  chan struct{}
	once  sync.Once
	res   *Result
	err   error
}

func newTicket(id string) *Ticket {
	return &Ticket{JobID: id, done: make(chan struct{})}
}

func (t *Ticket) complete(res *Result, err error) {
	t.once.Do(func() {
		t.res, t.err = res, err
		close(t.done)
	})
}

// Wait blocks until the job finishes or the caller's context expires.
func (t *Ticket) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result is the record of one completed job.
type Result struct {
	JobID      string
	Backend    string
	Cards      []int // physical card set the job ran on
	Backfilled bool  // granted past a ranked-ahead job that did not fit
	Refilled   bool  // ran on a reused grant, never touching the free list
	Batch      int   // jobs that shared the grant's execution (1 = private)
	QueueWait  time.Duration
	ExecTime   time.Duration
	SimSeconds float64 // analytic makespan (sim backend; 0 otherwise)
	EstCost    float64 // admission-time estimate, seconds
}
