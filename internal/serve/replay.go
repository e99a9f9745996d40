package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"hydra/internal/hw"
	"hydra/internal/sim"
)

// This file is the fleet-scale projection path: a discrete-event loop that
// drives the grant lifecycle (scheduler, sched.go) in virtual time, the same
// admit, dispatch and finish the live Server calls, counted by the same
// counters. Execution is priced by a CostFn instead of run, so a
// thousand-card fleet digesting 10^4+ jobs replays in milliseconds of wall
// clock; only the clock is synthetic. Virtual second t is time.Unix(0, 0)
// plus t, which is the axis a replayed Job.Deadline is read on.
// cmd/hydra-serve uses it for its saturation sweeps (-mode sweep) and
// closed-loop runs (-mode closed), and bench/'s serve-replay workload times
// it.

// CostFn prices one grant execution: the virtual seconds a grant of the
// given card set holds its cards to run `batch` coalesced instances of the
// job's program.
type CostFn func(job *Job, cards []int, batch int) (float64, error)

// batchAmortFrac is the fraction a of one run's time that batching
// amortizes (pipeline fill, evaluation-key loads, per-limb setup). 0.38 was
// fitted to a deleted host batch layer's 1.50x at batch 8, 8/(0.38 +
// 0.62*8) = 1.498; derived from the card model, key traffic is 0.017-0.020
// of the conv, bsgs and boot shapes' roofline time on the Hydra card.
const batchAmortFrac = 0.38

// batchFactor is the time b interchangeable jobs take as one batch, in
// single runs: a + (1-a)*b, a = batchAmortFrac.
func batchFactor(b int) float64 {
	if b <= 1 {
		return 1
	}
	return batchAmortFrac + (1-batchAmortFrac)*float64(b)
}

// SimCost builds a CostFn over the analytic machine model, the makespan of
// one run times batchFactor, memoized by (compatibility class, per-server
// span signature): a placement affects cost only through how the grant
// splits across server boundaries, so two grants with the same split price
// identically. The class is the job's BatchKey, the one promise of
// interchangeable work, else its ID.
func SimCost(cfg sim.Config, cps int) CostFn {
	cache := map[string]float64{}
	var k costKey
	return func(job *Job, cards []int, batch int) (float64, error) {
		key := k.of(job, cards, cps)
		if t, ok := cache[string(key)]; ok {
			return t * batchFactor(batch), nil
		}
		if job.Build == nil {
			return 0, fmt.Errorf("serve: replay job %s has no task-program builder", job.ID)
		}
		prog, err := job.Build(job.Cards)
		if err != nil {
			return 0, fmt.Errorf("serve: replay job %s: %w", job.ID, err)
		}
		res, err := sim.RunOn(prog, cfg, sim.Placement{Cards: cards, CardsPerServer: cps})
		if err != nil {
			return 0, fmt.Errorf("serve: replay job %s: %w", job.ID, err)
		}
		cache[string(key)] = res.Makespan
		return res.Makespan * batchFactor(batch), nil
	}
}

// costKey canonicalizes a grant for the pricing memo, "class/COUNTS" with
// COUNTS the per-server card counts in descending order ("6" vs "4+2" vs
// "2+2+2"), built in buffers reused from grant to grant: of returns a key
// valid until its next call. cards need not be sorted.
type costKey struct {
	buf         []byte
	srv, counts []int
}

func (k *costKey) of(job *Job, cards []int, cps int) []byte {
	class := job.BatchKey
	if class == "" {
		class = job.ID
	}
	k.srv = k.srv[:0]
	for _, c := range cards {
		k.srv = append(k.srv, c/cps)
	}
	slices.Sort(k.srv)
	k.counts = k.counts[:0]
	for i, j := 0, 0; i < len(k.srv); i = j {
		for j = i; j < len(k.srv) && k.srv[j] == k.srv[i]; j++ {
		}
		k.counts = append(k.counts, j-i)
	}
	slices.SortFunc(k.counts, func(a, b int) int { return b - a })
	k.buf = append(append(k.buf[:0], class...), '/')
	for i, n := range k.counts {
		if i > 0 {
			k.buf = append(k.buf, '+')
		}
		k.buf = strconv.AppendInt(k.buf, int64(n), 10)
	}
	return k.buf
}

// ReplayConfig configures a virtual-time replay of the scheduler.
type ReplayConfig struct {
	Fleet      hw.Fleet
	QueueDepth int // 0 = DefaultQueueDepth
	Coalesce   int // continuous-batching bound, as Config.CoalesceLimit
	Cost       CostFn
}

// ReplayStats summarizes one replay: one point on a saturation curve. The
// counters and percentiles are the scheduler's own, the ones Server.Snapshot
// reports; like the live server's, the latency sample buffers keep the
// first 2^16 samples, so past 2^16 jobs the percentiles describe the first
// 2^16 jobs granted (waits) and completed (exec).
type ReplayStats struct {
	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"`    // rejected at admission, queue full
	Expired   int `json:"expired"` // deadline unmeetable at admission, or passed in queue
	Completed int `json:"completed"`

	Grants    int `json:"grants"`
	Coalesced int `json:"coalesced"`
	Refills   int `json:"refills"`

	// Makespan spans the first arrival to the last completion, virtual
	// seconds. JobsPerSec is goodput: completions over that span.
	Makespan    float64 `json:"makespan_s"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Utilization float64 `json:"utilization"` // busy card-seconds / (cards * makespan)

	QueueWaitP50 float64 `json:"queue_wait_p50_s"`
	QueueWaitP99 float64 `json:"queue_wait_p99_s"`
	ExecP50      float64 `json:"exec_p50_s"`
	ExecP99      float64 `json:"exec_p99_s"`
}

// replayEvent is one scheduled future occurrence in virtual time.
type replayEvent struct {
	t   float64
	seq uint64 // insertion order breaks time ties deterministically

	// Grant completion (job nil): the grant finishes and its cards refill
	// or retire.
	g    grant
	cost float64

	// Closed-loop arrival (job non-nil): a user's think time elapsed.
	job  *Job
	user int
}

// eventHeap is a binary min-heap on (t, seq), holding events by value.
type eventHeap struct {
	items []replayEvent
	seq   uint64
}

func (h *eventHeap) push(e replayEvent) {
	e.seq = h.seq
	h.seq++
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) less(a, b int) bool {
	ea, eb := &h.items[a], &h.items[b]
	if ea.t != eb.t {
		return ea.t < eb.t
	}
	return ea.seq < eb.seq
}

// pop removes and returns the earliest event; ok is false when empty.
func (h *eventHeap) pop() (top replayEvent, ok bool) {
	n := len(h.items)
	if n == 0 {
		return top, false
	}
	top = h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = replayEvent{} // no stale grant in the backing array
	h.items = h.items[:n-1]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.items) && h.less(l, min) {
			min = l
		}
		if r < len(h.items) && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
	return top, true
}

// replayEngine drives the scheduler from a discrete-event loop: arrivals and
// grant completions are events on a virtual clock, and execution is priced
// by the CostFn instead of run.
type replayEngine struct {
	rc     ReplayConfig
	sched  *scheduler
	events eventHeap

	// Closed-loop hook: called when a job completes at virtual time t, so
	// the driver can re-arm the submitting user. Nil in open-loop replays.
	onDone func(p *pending, t float64)

	busyInt  float64 // busy card-seconds integral
	lastT    float64
	firstAt  float64
	endT     float64
	started  bool
	firstErr error
}

func newReplayEngine(rc ReplayConfig) (*replayEngine, error) {
	if rc.Cost == nil {
		return nil, fmt.Errorf("serve: replay needs a cost function")
	}
	sched, err := newScheduler(rc.Fleet, rc.QueueDepth, rc.Coalesce)
	if err != nil {
		return nil, err
	}
	return &replayEngine{rc: rc, sched: sched}, nil
}

// advance integrates the busy-card gauge up to virtual time t.
func (e *replayEngine) advance(t float64) {
	if t > e.lastT {
		busy := e.rc.Fleet.Cards - e.sched.free.len()
		e.busyInt += float64(busy) * (t - e.lastT)
		e.lastT = t
	}
}

// arrive offers one job at virtual time t and reports whether it was
// queued. Only an invalid job is an error; a shed or expired one is counted.
func (e *replayEngine) arrive(job *Job, t float64) (bool, error) {
	e.advance(t)
	if !e.started || t < e.firstAt {
		e.firstAt, e.started = t, true
	}
	if _, err := e.sched.admit(job, t); err != nil {
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadline) {
			return false, nil
		}
		return false, err
	}
	started, _ := e.sched.dispatch(t)
	for _, g := range started {
		e.price(g, t)
	}
	return true, nil
}

// price prices one grant starting at t and schedules its completion.
func (e *replayEngine) price(g grant, t float64) {
	cost, err := e.rc.Cost(g.batch[0].job, g.cards, len(g.batch))
	if err != nil {
		// Pricing failures are workload programming errors; record the
		// first and let the grant complete at zero cost so the replay
		// terminates.
		if e.firstErr == nil {
			e.firstErr = err
		}
		cost = 0
	}
	e.events.push(replayEvent{t: t + cost, g: g, cost: cost})
}

// complete finishes a grant at its event time: the scheduler refills or
// retires it, and every grant that starts is scheduled.
func (e *replayEngine) complete(ev replayEvent) {
	t := ev.t
	e.advance(t)
	e.endT = t
	if e.onDone != nil {
		for _, p := range ev.g.batch {
			e.onDone(p, t)
		}
	}
	started, _ := e.sched.finish(&ev.g, t, ev.cost, nil)
	if ev.g.batch != nil {
		e.price(ev.g, t)
	}
	for _, g := range started {
		e.price(g, t)
	}
}

// run drains the event heap, interleaving the pregenerated open-loop
// arrivals (sorted by offset) with scheduled events.
func (e *replayEngine) run(arrivals []Arrival) error {
	next := 0
	for {
		var arrT = math.Inf(1)
		if next < len(arrivals) {
			arrT = arrivals[next].At.Seconds()
		}
		ev := e.peek()
		if ev == nil && arrT == math.Inf(1) {
			return nil
		}
		if ev == nil || arrT <= ev.t {
			a := arrivals[next]
			next++
			if _, err := e.arrive(a.Job, arrT); err != nil {
				return err
			}
			continue
		}
		top, _ := e.events.pop()
		e.complete(top)
	}
}

func (e *replayEngine) peek() *replayEvent {
	if len(e.events.items) == 0 {
		return nil
	}
	return &e.events.items[0]
}

// stats is the scheduler's snapshot plus the replayer's own makespan,
// goodput and utilization.
func (e *replayEngine) stats() *ReplayStats {
	snap := e.sched.snapshot()
	span := e.endT - e.firstAt
	st := &ReplayStats{
		Offered:   e.sched.offered,
		Admitted:  int(snap.Submitted),
		Shed:      int(snap.Rejected),
		Expired:   int(snap.Expired),
		Completed: int(snap.Completed),
		Grants:    int(snap.Grants),
		Coalesced: int(snap.Coalesced),
		Refills:   int(snap.Refills),
		Makespan:  span,

		QueueWaitP50: snap.QueueWaitP50,
		QueueWaitP99: snap.QueueWaitP99,
		ExecP50:      snap.ExecP50,
		ExecP99:      snap.ExecP99,
	}
	if span > 0 {
		st.JobsPerSec = float64(snap.Completed) / span
		st.Utilization = e.busyInt / (float64(e.rc.Fleet.Cards) * span)
	}
	return st
}

// Replay drives a pregenerated open-loop arrival sequence through the
// scheduler in virtual time and returns the resulting saturation point.
// Arrivals must be sorted by offset (Workload generators emit them sorted).
func Replay(arrivals []Arrival, rc ReplayConfig) (*ReplayStats, error) {
	e, err := newReplayEngine(rc)
	if err != nil {
		return nil, err
	}
	n := min(len(arrivals), maxSamples)
	e.sched.queueWait, e.sched.exec = make([]float64, 0, n), make([]float64, 0, n)
	if err := e.run(arrivals); err != nil {
		return nil, err
	}
	if e.firstErr != nil {
		return nil, e.firstErr
	}
	return e.stats(), nil
}

// ReplayClosed drives a fixed user population in closed loop: each user
// submits one job, waits for it to complete, thinks for an exponential time
// of the given mean, and submits again — the self-throttling regime of a
// real service with `users` concurrent clients (offered load ≈ users/think
// when the fleet keeps up). The replay ends when `jobs` jobs complete.
// Shapes are drawn per submission from the weighted mix; shed submissions
// re-enter think instead of retrying immediately.
func ReplayClosed(users, jobs int, think time.Duration, seed int64, shapes []Shape, rc ReplayConfig) (*ReplayStats, error) {
	if users <= 0 || jobs <= 0 {
		return nil, fmt.Errorf("serve: closed-loop replay needs positive users and jobs, got %d users, %d jobs", users, jobs)
	}
	if think <= 0 {
		return nil, fmt.Errorf("serve: closed-loop replay needs a positive think time")
	}
	if len(shapes) == 0 {
		return nil, fmt.Errorf("serve: closed-loop replay needs at least one shape")
	}
	totalW := 0.0
	for _, sh := range shapes {
		if sh.Weight <= 0 {
			return nil, fmt.Errorf("serve: shape %s needs a positive weight", sh.Name)
		}
		totalW += sh.Weight
	}
	e, err := newReplayEngine(rc)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	thinkS := think.Seconds()
	nextID := 0
	draw := func(user int) *Job {
		pick := rng.Float64() * totalW
		sh := shapes[len(shapes)-1]
		for _, cand := range shapes {
			if pick < cand.Weight {
				sh = cand
				break
			}
			pick -= cand.Weight
		}
		id := nextID
		nextID++
		return &Job{
			ID:       fmt.Sprintf("u%d-%s-%06d", user, sh.Name, id),
			Tenant:   sh.Name,
			Priority: sh.Priority,
			Cards:    sh.Cards,
			Timeout:  sh.Timeout,
			BatchKey: sh.Name,
			Build:    sh.Build,
		}
	}
	rearm := func(user int, t float64) {
		gap := -math.Log(1-rng.Float64()) * thinkS
		e.events.push(replayEvent{t: t + gap, job: draw(user), user: user})
	}

	// Re-arm users on completion. The submitting user is encoded in the job
	// ID; parsing it back keeps pending free of replay-only fields.
	e.onDone = func(p *pending, t float64) {
		var user int
		if _, err := fmt.Sscanf(p.job.ID, "u%d-", &user); err == nil {
			rearm(user, t)
		}
	}

	// Stagger the first submissions over one think interval so the replay
	// does not open on a synchronized thundering herd.
	for u := 0; u < users; u++ {
		gap := -math.Log(1-rng.Float64()) * thinkS
		e.events.push(replayEvent{t: gap, job: draw(u), user: u})
	}

	// Closed loop: an arrival that is refused re-enters think.
	for e.sched.completed < jobs {
		ev, ok := e.events.pop()
		if !ok {
			return nil, fmt.Errorf("serve: closed-loop replay stalled at %d/%d jobs", e.sched.completed, jobs)
		}
		if ev.job == nil {
			e.complete(ev)
			continue
		}
		queued, err := e.arrive(ev.job, ev.t)
		if err != nil {
			return nil, err
		}
		if !queued {
			rearm(ev.user, ev.t)
		}
	}
	if e.firstErr != nil {
		return nil, e.firstErr
	}
	return e.stats(), nil
}
