package serve

import (
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
// drives the real scheduler structures — admitQueue, freeList, dispatchPass,
// popRefill — in virtual time. Execution is priced analytically instead of
// slept through, so a thousand-card fleet digesting 10^4+ jobs replays in
// milliseconds of wall clock. The decisions are the live Server's decisions
// (same policy core, sched.go); only the clock is synthetic. cmd/hydra-serve
// uses it for its saturation sweeps (-mode sweep), and bench/'s serve-replay
// workload times it.

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

// ReplayStats summarizes one replay: one point on a saturation curve.
type ReplayStats struct {
	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"` // rejected at admission, queue full
	Expired   int `json:"expired"`
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

	// Grant completion (cards non-nil): the batch finishes and the cards
	// refill or retire.
	batch []*pending
	cards []int
	cost  float64

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

// replayEngine runs the discrete-event loop over the real scheduler state.
type replayEngine struct {
	rc    ReplayConfig
	q     *admitQueue
	free  *freeList
	depth int
	seq   uint64
	epoch time.Time // anchor mapping virtual seconds onto pending.submitted

	events eventHeap

	// Closed-loop hook: called when a job completes at virtual time t, so
	// the driver can re-arm the submitting user. Nil in open-loop replays.
	onDone func(p *pending, t float64)

	offered, admitted, shed, expired, completed int
	grants, coalesced, refills                  int
	waits, execs                                []float64

	busyCards int
	busyInt   float64 // card-seconds integral
	lastT     float64
	firstAt   float64
	endT      float64
	started   bool
	firstErr  error
}

func newReplayEngine(rc ReplayConfig) (*replayEngine, error) {
	if err := rc.Fleet.Validate(); err != nil {
		return nil, err
	}
	if rc.Cost == nil {
		return nil, fmt.Errorf("serve: replay needs a cost function")
	}
	depth := rc.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &replayEngine{
		rc:    rc,
		q:     newAdmitQueue(depth),
		free:  newFreeList(rc.Fleet.Cards, rc.Fleet.CardsPerServer),
		depth: depth,
		epoch: time.Unix(0, 0).UTC(),
	}, nil
}

// advance integrates the busy-card gauge up to virtual time t.
func (e *replayEngine) advance(t float64) {
	if t > e.lastT {
		e.busyInt += float64(e.busyCards) * (t - e.lastT)
		e.lastT = t
	}
}

// vt maps virtual seconds onto the wall-clock axis pending.submitted lives on.
func (e *replayEngine) vt(t float64) time.Time { return e.epoch.Add(durationOf(t)) }

// arrive offers one job to the queue at virtual time t.
func (e *replayEngine) arrive(job *Job, t float64) error {
	e.advance(t)
	if !e.started || t < e.firstAt {
		e.firstAt, e.started = t, true
	}
	e.offered++
	if err := job.validate(e.rc.Fleet); err != nil {
		return err
	}
	p := &pending{job: job, ticket: newTicket(job.ID), submitted: e.vt(t), seq: e.seq}
	e.seq++
	if err := e.q.push(p); err != nil {
		e.shed++
		return nil
	}
	e.admitted++
	e.dispatch(t)
	return nil
}

// dispatch sheds expired jobs and grants everything the free cards allow,
// through the same dispatchPass the live server uses.
func (e *replayEngine) dispatch(t float64) {
	for range e.q.expire(e.vt(t)) {
		e.expired++
	}
	for _, d := range dispatchPass(e.q, e.free, e.rc.Coalesce) {
		e.startGrant(append([]*pending{d.lead}, d.riders...), d.cards, t, false)
	}
}

// startGrant prices a grant and schedules its completion.
func (e *replayEngine) startGrant(batch []*pending, cards []int, t float64, refill bool) {
	cost, err := e.rc.Cost(batch[0].job, cards, len(batch))
	if err != nil {
		// Pricing failures are workload programming errors; record the first
		// and let the grant complete at zero cost so the replay terminates.
		if e.firstErr == nil {
			e.firstErr = err
		}
		cost = 0
	}
	e.grants++
	e.coalesced += len(batch) - 1
	if refill {
		e.refills++
	}
	for _, p := range batch {
		e.waits = append(e.waits, t-e.vtInv(p.submitted))
	}
	e.busyCards += len(cards)
	e.events.push(&replayEvent{t: t + cost, batch: batch, cards: cards, cost: cost})
}

// vtInv maps a pending's submitted stamp back to virtual seconds.
func (e *replayEngine) vtInv(ts time.Time) float64 {
	return ts.Sub(e.epoch).Seconds()
}

// complete retires or refills a finished grant at virtual time t.
func (e *replayEngine) complete(ev *replayEvent, t float64) {
	e.advance(t)
	e.completed += len(ev.batch)
	for range ev.batch {
		e.execs = append(e.execs, ev.cost)
	}
	e.endT = t
	if e.onDone != nil {
		for _, p := range ev.batch {
			e.onDone(p, t)
		}
	}

	cards := ev.cards
	e.busyCards -= len(cards)
	key := ev.batch[0].job.BatchKey
	if e.rc.Coalesce > 1 && key != "" {
		for range e.q.expire(e.vt(t)) {
			e.expired++
		}
		if lead := e.q.popRefill(len(cards), key); lead != nil {
			riders := e.q.popRiders(key, lead.job.Cards, e.rc.Coalesce-1)
			keep, surplus := cards[:lead.job.Cards], cards[lead.job.Cards:]
			if len(surplus) > 0 {
				e.free.add(surplus)
			}
			e.startGrant(append([]*pending{lead}, riders...), keep, t, true)
			if len(surplus) > 0 {
				e.dispatch(t)
			}
			return
		}
	}
	e.free.add(cards)
	e.dispatch(t)
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
			if err := e.arrive(a.Job, arrT); err != nil {
				return err
			}
			continue
		}
		e.events.pop()
		if ev.job != nil {
			if err := e.arrive(ev.job, ev.t); err != nil {
				return err
			}
			continue
		}
		e.complete(ev, ev.t)
	}
}

func (e *replayEngine) peek() *replayEvent {
	if len(e.events.items) == 0 {
		return nil
	}
	return e.events.items[0]
}

func (e *replayEngine) stats() *ReplayStats {
	span := e.endT - e.firstAt
	st := &ReplayStats{
		Offered:   e.offered,
		Admitted:  e.admitted,
		Shed:      e.shed,
		Expired:   e.expired,
		Completed: e.completed,
		Grants:    e.grants,
		Coalesced: e.coalesced,
		Refills:   e.refills,
		Makespan:  span,

		QueueWaitP50: percentile(e.waits, 0.50),
		QueueWaitP99: percentile(e.waits, 0.99),
		ExecP50:      percentile(e.execs, 0.50),
		ExecP99:      percentile(e.execs, 0.99),
	}
	if span > 0 {
		st.JobsPerSec = float64(e.completed) / span
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

	// Closed loop: an arrival that gets shed re-enters think.
	for e.completed < jobs {
		ev := e.events.pop()
		if ev == nil {
			return nil, fmt.Errorf("serve: closed-loop replay stalled at %d/%d jobs", e.completed, jobs)
		}
		if ev.job != nil {
			shedBefore := e.shed
			if err := e.arrive(ev.job, ev.t); err != nil {
				return nil, err
			}
			if e.shed > shedBefore {
				rearm(ev.user, ev.t)
			}
			continue
		}
		e.complete(ev, ev.t)
	}
	if e.firstErr != nil {
		return nil, e.firstErr
	}
	return e.stats(), nil
}
