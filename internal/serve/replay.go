package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// SimCost builds a CostFn over the analytic machine model, memoized by
// (compatibility class, per-server span signature, batch): a placement
// affects cost only through how the grant splits across server boundaries,
// so two grants with the same split price identically.
func SimCost(cfg sim.Config, cps int) CostFn {
	cache := map[string]float64{}
	return func(job *Job, cards []int, batch int) (float64, error) {
		key := costKey(job, cards, cps, batch)
		if v, ok := cache[key]; ok {
			return v, nil
		}
		if job.Build == nil {
			return 0, fmt.Errorf("serve: replay job %s has no task-program builder", job.ID)
		}
		prog, err := job.Build(job.Cards)
		if err != nil {
			return 0, fmt.Errorf("serve: replay job %s: %w", job.ID, err)
		}
		res, err := sim.RunOn(prog, cfg, sim.Placement{Cards: cards, CardsPerServer: cps, Batch: batch})
		if err != nil {
			return 0, fmt.Errorf("serve: replay job %s: %w", job.ID, err)
		}
		cache[key] = res.Makespan
		return res.Makespan, nil
	}
}

// costKey canonicalizes a grant for the pricing cache. The class is the
// job's compatibility key (shape); the span signature is the per-server card
// counts sorted descending ("6" vs "4+2" vs "2+2+2").
func costKey(job *Job, cards []int, cps, batch int) string {
	class := job.BatchKey
	if class == "" {
		class = job.Tenant
	}
	if class == "" {
		class = job.ID
	}
	perServer := map[int]int{}
	for _, c := range cards {
		perServer[c/cps]++
	}
	counts := make([]int, 0, len(perServer))
	for _, n := range perServer {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	key := class + "/b" + strconv.Itoa(batch) + "/"
	for i, n := range counts {
		if i > 0 {
			key += "+"
		}
		key += strconv.Itoa(n)
	}
	return key
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

// eventHeap is a binary min-heap on (t, seq).
type eventHeap struct {
	items []*replayEvent
	seq   uint64
}

func (h *eventHeap) push(e *replayEvent) {
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
	ea, eb := h.items[a], h.items[b]
	if ea.t != eb.t {
		return ea.t < eb.t
	}
	return ea.seq < eb.seq
}

func (h *eventHeap) pop() *replayEvent {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
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
	return top
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
	e.start(started, t)
	return true, nil
}

// start prices each grant and schedules its completion.
func (e *replayEngine) start(grants []grant, t float64) {
	for _, g := range grants {
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
		e.events.push(&replayEvent{t: t + cost, g: g, cost: cost})
	}
}

// complete finishes a grant at its event time: the scheduler refills or
// retires it, and every grant that starts is scheduled.
func (e *replayEngine) complete(ev *replayEvent) {
	t := ev.t
	e.advance(t)
	e.endT = t
	if e.onDone != nil {
		for _, p := range ev.g.batch {
			e.onDone(p, t)
		}
	}
	g := ev.g
	started, _ := e.sched.finish(&g, t, ev.cost, nil)
	if g.batch != nil {
		e.start([]grant{g}, t)
	}
	e.start(started, t)
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
		e.events.pop()
		e.complete(ev)
	}
}

func (e *replayEngine) peek() *replayEvent {
	if len(e.events.items) == 0 {
		return nil
	}
	return e.events.items[0]
}

func (e *replayEngine) stats() *ReplayStats {
	c := e.sched
	span := e.endT - e.firstAt
	st := &ReplayStats{
		Offered:   c.offered,
		Admitted:  c.admitted,
		Shed:      c.rejected,
		Expired:   c.expired,
		Completed: c.completed,
		Grants:    c.grants,
		Coalesced: c.coalesced,
		Refills:   c.refills,
		Makespan:  span,

		QueueWaitP50: percentile(c.queueWait, 0.50),
		QueueWaitP99: percentile(c.queueWait, 0.99),
		ExecP50:      percentile(c.exec, 0.50),
		ExecP99:      percentile(c.exec, 0.99),
	}
	if span > 0 {
		st.JobsPerSec = float64(c.completed) / span
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
		e.events.push(&replayEvent{t: t + gap, job: draw(user), user: user})
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
		e.events.push(&replayEvent{t: gap, job: draw(u), user: u})
	}

	// Closed loop: an arrival that is refused re-enters think.
	for e.sched.completed < jobs {
		ev := e.events.pop()
		if ev == nil {
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
