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
//   - Admission (admitQueue): a bounded queue ordered by priority, then
//     deadline, then arrival, indexed by a rank heap, a deadline heap and
//     per-batch-key heaps so dispatch never scans. When it is full, Submit
//     fails fast with ErrOverloaded instead of queueing unboundedly —
//     saturation sheds load at the front door, it does not grow memory.
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
//   - Observability (Metrics): queue-wait and execution-latency samples,
//     cards-busy/queued/running gauges, admission and grant counters,
//     snapshot at any time; cmd/hydra-serve prints them as its report.
//   - Scale projection (Replay): the same queue, allocator and dispatch
//     pass driven in virtual time by a discrete-event loop — saturation
//     curves for thousand-card fleets and 10^4+ job traces in milliseconds
//     of wall clock.
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
	// Estimator, when set, prices each admitted job's program on this
	// analytic machine model (identity placement, the job's own card count)
	// to fill Job.EstCost. The estimate feeds deadline admission control and
	// the report; it never blocks dispatch.
	Estimator *sim.Config
	// CoalesceLimit bounds the jobs sharing one card grant (continuous
	// batching). 0 and 1 grant per job — the classic path, kept as the
	// flag-selectable ablation baseline. k > 1 coalesces up to k compatible
	// queued jobs (same Job.BatchKey and card demand) into one batched
	// execution per grant, and lets a finishing grant refill from the queue
	// without a free-list round trip. Batched grants reach the backend as
	// Placement.Batch; the sim backend prices them, the cluster backend
	// rejects them.
	CoalesceLimit int
}

// DefaultQueueDepth is the admission bound when Config.QueueDepth is zero.
const DefaultQueueDepth = 64

// Server schedules jobs over the card pool.
type Server struct {
	cfg      Config
	backend  Backend
	coalesce int // normalized CoalesceLimit (>= 1)

	mu      sync.Mutex
	cond    *sync.Cond // signaled whenever queued/running work drains
	q       *admitQueue
	free    *freeList
	running int // in-flight grants (== jobs when nothing coalesces)
	closed  bool
	seq     uint64

	metrics Metrics
	wg      sync.WaitGroup // one entry per in-flight grant goroutine

	baseCtx   context.Context
	cancelAll context.CancelFunc

	now func() time.Time // clock hook (tests use a fake clock)
}

// New builds a server over the configured fleet.
func New(cfg Config) (*Server, error) {
	if err := cfg.Fleet.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: config needs a backend")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	coalesce := cfg.CoalesceLimit
	if coalesce < 1 {
		coalesce = 1
	}
	s := &Server{
		cfg:      cfg,
		backend:  cfg.Backend,
		coalesce: coalesce,
		q:        newAdmitQueue(depth),
		free:     newFreeList(cfg.Fleet.Cards, cfg.Fleet.CardsPerServer),
		now:      time.Now,
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	return s, nil
}

// Metrics returns the server's metrics surface.
func (s *Server) Metrics() *Metrics { return &s.metrics }

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

	// Validate and price before taking the scheduler lock: estimation
	// simulates the job's program and must not serialize admissions.
	for i, job := range jobs {
		if err := job.validate(s.cfg.Fleet); err != nil {
			errs[i] = err
			continue
		}
		if job.EstCost == 0 && s.cfg.Estimator != nil && job.Build != nil {
			// Advisory: an unpriced job is admitted with EstCost 0 and fails,
			// if its Build is broken, alone at its grant.
			if est, err := estimate(job, *s.cfg.Estimator); err == nil {
				job.EstCost = est
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	admitted := false
	for i, job := range jobs {
		if errs[i] != nil {
			continue
		}
		if s.closed {
			s.metrics.reject()
			errs[i] = ErrClosed
			continue
		}
		if !job.Deadline.IsZero() && now.Add(durationOf(job.EstCost)).After(job.Deadline) {
			s.metrics.expire()
			errs[i] = fmt.Errorf("serve: job %s: %w", job.ID, ErrDeadline)
			continue
		}
		t := newTicket(job.ID)
		p := &pending{job: job, ticket: t, submitted: now, seq: s.seq}
		s.seq++
		if err := s.q.push(p); err != nil {
			s.metrics.reject()
			errs[i] = fmt.Errorf("serve: job %s: %w", job.ID, err)
			continue
		}
		s.metrics.admit()
		tickets[i] = t
		admitted = true
	}
	if admitted {
		s.dispatchLocked()
	}
	return tickets, errs
}

// durationOf converts the analytic cost model's seconds to a duration.
func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// shedExpiredLocked fails queued jobs whose deadline passed. Callers hold
// s.mu.
func (s *Server) shedExpiredLocked() {
	now := s.now()
	for _, p := range s.q.expire(now) {
		s.metrics.expireQueued()
		p.ticket.complete(nil, fmt.Errorf("serve: job %s expired in queue: %w", p.job.ID, ErrDeadline))
	}
}

// dispatchLocked drains the admission queue onto free cards: expired jobs
// are shed, then one dispatchPass makes every grant decision the free cards
// allow — rank order with backfill, compatible jobs coalesced per grant.
// Callers hold s.mu.
func (s *Server) dispatchLocked() {
	s.shedExpiredLocked()
	now := s.now()
	for _, d := range dispatchPass(s.q, s.free, s.coalesce) {
		s.running++
		s.metrics.startGrant(len(d.cards), grantWaits(d.lead, d.riders, now))
		s.wg.Add(1)
		go s.runGrant(d)
	}
}

// grantWaits collects the queue-wait sample of every job on a grant.
func grantWaits(lead *pending, riders []*pending, now time.Time) []time.Duration {
	waits := make([]time.Duration, 0, 1+len(riders))
	waits = append(waits, now.Sub(lead.submitted))
	for _, r := range riders {
		waits = append(waits, now.Sub(r.submitted))
	}
	return waits
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

// refillLocked decides whether a finishing grant's cards go straight to the
// next compatible queued jobs (continuous batching) instead of through the
// free list. It returns the next batch (leader first) and the cards to keep;
// surplus reports cards trimmed off when the next leader demands fewer.
// A nil batch means the grant retires. Callers hold s.mu.
func (s *Server) refillLocked(key string, cards []int) (batch []*pending, keep, surplus []int) {
	if s.closed || s.coalesce <= 1 || key == "" {
		return nil, cards, nil
	}
	s.shedExpiredLocked()
	lead := s.q.popRefill(len(cards), key)
	if lead == nil {
		return nil, cards, nil
	}
	riders := s.q.popRiders(key, lead.job.Cards, s.coalesce-1)
	return append([]*pending{lead}, riders...), cards[:lead.job.Cards], cards[lead.job.Cards:]
}

// runGrant executes a grant: the leader's program runs once per batch on the
// granted card set (riders are interchangeable work by the BatchKey
// contract), every ticket on the grant completes, and then the grant either
// refills from the queue — same cards, next compatible batch, no free-list
// round trip — or retires its cards to the pool.
func (s *Server) runGrant(d decision) {
	defer s.wg.Done()
	cards := d.cards
	batch := append([]*pending{d.lead}, d.riders...)
	backfill := d.backfill
	refilled := false
	for {
		lead := batch[0]
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
			return s.backend.Run(ctx, lead.job, sim.Placement{
				Cards:          cards,
				CardsPerServer: s.cfg.Fleet.CardsPerServer,
				Batch:          len(batch),
			})
		}()
		elapsed := time.Since(started)
		cancel()

		s.mu.Lock()
		s.metrics.jobsDone(len(batch), elapsed, err)
		next, keep, surplus := s.refillLocked(lead.job.BatchKey, cards)
		if next == nil {
			s.free.add(cards)
			s.metrics.endGrant(len(cards))
			s.running--
			s.dispatchLocked()
			s.cond.Broadcast()
		} else {
			if len(surplus) > 0 {
				s.free.add(surplus)
			}
			s.metrics.refillGrant(len(surplus), grantWaits(next[0], next[1:], s.now()))
			if len(surplus) > 0 {
				s.dispatchLocked()
			}
		}
		s.mu.Unlock()

		for _, p := range batch {
			if err != nil {
				p.ticket.complete(nil, fmt.Errorf("serve: job %s: %w", p.job.ID, err))
				continue
			}
			res := &Result{
				JobID:      p.job.ID,
				Backend:    s.backend.Name(),
				Cards:      cards,
				Backfilled: backfill,
				Refilled:   refilled,
				Batch:      len(batch),
				QueueWait:  started.Sub(realOrZero(p.submitted, started)),
				ExecTime:   elapsed,
				EstCost:    p.job.EstCost,
			}
			if rep != nil {
				res.SimSeconds = rep.SimSeconds
			}
			p.ticket.complete(res, nil)
		}

		if next == nil {
			return
		}
		batch, cards = next, keep
		backfill, refilled = false, true
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
	for !s.closed && (s.q.len() > 0 || s.running > 0) {
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
	for _, p := range s.q.drain() {
		s.metrics.reject()
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

// Done returns a channel closed when the job finishes (in any state).
func (t *Ticket) Done() <-chan struct{} { return t.done }

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

// estimate prices a job by simulating its program on the estimator machine
// with identity placement (the job's cards packed from 0, the best case).
// Build is the tenant's code running on the submitter's goroutine: a panic out
// of it (or out of simulating the nil program it returned) is an estimate
// that could not be made, not a reason to lose the submitter.
func estimate(job *Job, cfg sim.Config) (est float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			est, err = 0, fmt.Errorf("panic: %v", r)
		}
	}()
	prog, err := job.Build(job.Cards)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(prog, cfg)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
