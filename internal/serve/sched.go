package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hydra/internal/hw"
)

// This file is the grant lifecycle, written once: scheduler owns the
// admission queue, the free-card pool, the coalesce bound and the counters,
// and makes every decision a job meets between arrival and completion —
// admit, dispatch, finish. The live Server (serve.go) drives it under its
// lock from goroutines on the wall clock; the replayer (replay.go) drives it
// from a discrete-event loop on a virtual clock. The saturation curves the
// replayer produces are therefore curves of the very scheduler the live
// server runs, counted by the very same counters.
//
// Time is float seconds since the Unix epoch: the live server reads it off
// its clock (a reading today resolves to about a quarter microsecond), the
// replayer's virtual time starts at zero. Deadlines and submission stamps
// stay time.Time; instant and seconds convert.

// instant maps scheduler seconds onto the time axis of Job.Deadline.
func instant(now float64) time.Time { return time.Unix(0, 0).Add(durationOf(now)) }

// seconds maps a time back to scheduler seconds.
func seconds(t time.Time) float64 { return t.Sub(time.Unix(0, 0)).Seconds() }

// durationOf converts the analytic cost model's seconds to a duration.
func durationOf(secs float64) time.Duration {
	return time.Duration(secs * float64(time.Second))
}

// maxSamples caps the latency sample buffers; beyond it, new samples are
// dropped (the counters keep counting). 64k samples cover any realistic
// load-test window or replay point without unbounded growth.
const maxSamples = 1 << 16

// grant is one card grant: a batch of interchangeable jobs (leader first,
// then the riders coalesced onto it) running on one physical card set.
type grant struct {
	batch    []*pending
	cards    []int
	backfill bool // granted past a better-ranked job that did not fit
	refill   bool // reused a finishing grant's cards, no free-list bounce
}

// scheduler is the grant lifecycle. It is not safe for concurrent use: the
// Server calls it under its mutex, the replayer from one goroutine.
type scheduler struct {
	fleet    hw.Fleet
	q        *admitQueue
	free     *freeList
	coalesce int // normalized coalesce bound (>= 1)
	seq      uint64

	// Counters, monotonic. expired counts both admission-time refusals and
	// queued jobs shed at their deadline; rejected counts queue-full sheds
	// (and, on the live server, submissions refused after Close).
	offered, admitted, rejected, expired int
	completed, failed, canceled          int
	grants, coalesced, refills           int
	running                              int // gauge: live grants

	queueWait, exec []float64 // seconds, capped at maxSamples

	// dispatchPass scratch, reused from pass to pass.
	out     []grant
	skipped []*pending
}

func newScheduler(fleet hw.Fleet, depth, coalesce int) (*scheduler, error) {
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	if coalesce < 1 {
		coalesce = 1
	}
	return &scheduler{
		fleet:    fleet,
		q:        newAdmitQueue(depth),
		free:     newFreeList(fleet.Cards, fleet.CardsPerServer),
		coalesce: coalesce,
	}, nil
}

// admit offers one job at now. An invalid job is an error; a job whose
// deadline its estimated cost already rules out is refused (ErrDeadline,
// counted expired); a full queue sheds it (ErrOverloaded). Otherwise the job
// is queued and returned; the caller dispatches.
func (c *scheduler) admit(job *Job, now float64) (*pending, error) {
	c.offered++
	if err := job.validate(c.fleet); err != nil {
		return nil, err
	}
	at := instant(now)
	if !job.Deadline.IsZero() && at.Add(durationOf(job.EstCost)).After(job.Deadline) {
		c.expired++
		return nil, fmt.Errorf("serve: job %s: %w", job.ID, ErrDeadline)
	}
	p := &pending{job: job, submitted: at, seq: c.seq}
	c.seq++
	if err := c.q.push(p); err != nil {
		c.rejected++
		return nil, fmt.Errorf("serve: job %s: %w", job.ID, err)
	}
	c.admitted++
	return p, nil
}

// shed removes the queued jobs whose deadline passed by now.
func (c *scheduler) shed(now float64) []*pending {
	expired := c.q.expire(instant(now))
	c.expired += len(expired)
	return expired
}

// dispatch sheds expired jobs, then grants everything the free cards allow
// in one dispatchPass. started is valid until the scheduler's next call.
func (c *scheduler) dispatch(now float64) (started []grant, expired []*pending) {
	expired = c.shed(now)
	started = c.dispatchPass()
	for i := range started {
		c.record(&started[i], now)
		c.running++
	}
	return started, expired
}

// finish records g's completion at now — exec seconds of execution ending in
// err — then refills g in place with the next compatible batch, releasing
// the cards its new leader does not need, or retires it (g.batch == nil).
// Either way it dispatches again when cards came free (started as dispatch).
func (c *scheduler) finish(g *grant, now, exec float64, err error) (started []grant, expired []*pending) {
	n := len(g.batch)
	switch {
	case err == nil:
		c.completed += n
		for i := 0; i < n; i++ {
			c.exec = sample(c.exec, exec)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		c.canceled += n
	default:
		c.failed += n
	}

	var lead *pending
	if key := g.batch[0].job.BatchKey; c.coalesce > 1 && key != "" {
		expired = c.shed(now)
		lead = c.q.popRefill(len(g.cards), key)
	}
	if lead == nil {
		c.free.add(g.cards)
		c.running--
		*g = grant{}
	} else {
		surplus := g.cards[lead.job.Cards:]
		*g = grant{batch: c.batch(lead, true), cards: g.cards[:lead.job.Cards], refill: true}
		c.record(g, now)
		if len(surplus) == 0 {
			return nil, expired
		}
		c.free.add(surplus)
	}
	started, more := c.dispatch(now)
	return started, append(expired, more...)
}

// batch returns the leader-first batch for a grant led by lead: with ride
// set and coalescing on, up to coalesce-1 compatible riders leave the queue
// with it.
func (c *scheduler) batch(lead *pending, ride bool) []*pending {
	b := []*pending{lead}
	if ride && c.coalesce > 1 {
		b = c.q.popRiders(b, lead.job.BatchKey, lead.job.Cards, c.coalesce-1)
	}
	return b
}

// record counts a grant leaving the scheduler at now, with one queue-wait
// sample per job on it.
func (c *scheduler) record(g *grant, now float64) {
	c.grants++
	c.coalesced += len(g.batch) - 1
	if g.refill {
		c.refills++
	}
	for _, p := range g.batch {
		c.queueWait = sample(c.queueWait, now-seconds(p.submitted))
	}
}

func sample(buf []float64, v float64) []float64 {
	if len(buf) < maxSamples {
		buf = append(buf, v)
	}
	return buf
}

// dispatchPass drains the admission queue onto the free cards in rank order,
// with backfill and continuous-batching coalescing, and returns every grant
// the free cards allow. One pass makes all decisions: the queue's rank heap
// is popped exactly once per entry (granted entries leave, non-fitting
// entries are pushed back at the end), so a full pass is O(n log n) against
// the old O(n) scan per grant — and the fitsAny probe makes the saturated
// no-op pass O(1).
//
// With coalesce <= 1 every grant carries one job (the ablation baseline);
// with k > 1 a leader additionally takes up to k-1 riders sharing its batch
// key and exact card demand — but only when the fleet is starved for that
// demand. A batch of b dilates the grant to t*(a + (1-a)*b), so riding is a
// win only when the rider could not get cards of its own: if, after the
// leader's allocation, another same-demand grant still fits, the would-be
// rider stays queued and the pass grants it in parallel on idle cards
// instead. Without the gate, a burst into a large, mostly-idle fleet
// serializes onto few grants and throughput drops below the per-job
// baseline. Riders can never collide with the skipped set: a skipped entry
// demands strictly more cards than were free when it was skipped, hence
// strictly more than any later leader's demand.
//
// The returned slice is the scheduler's buffer, valid until its next call.
func (c *scheduler) dispatchPass() []grant {
	q, f := c.q, c.free
	q.init()
	clear(c.out) // drop the last pass's grants
	out, skipped := c.out[:0], c.skipped[:0]
	// Invariant: the demand index covers heap ∪ skipped, and every skipped
	// entry demands more than f.len(); so while fitsAny holds, a fitting
	// entry exists in the heap and the inner pop loop terminates on it.
	for q.fitsAny(f.len()) {
		var top *pending
		for {
			top = q.rank.pop()
			if top.job.Cards <= f.len() {
				break
			}
			skipped = append(skipped, top)
		}
		q.detach(top)
		starved := f.len()-top.job.Cards < top.job.Cards
		out = append(out, grant{
			batch:    c.batch(top, starved),
			cards:    f.take(top.job.Cards),
			backfill: len(skipped) > 0,
		})
	}
	for _, s := range skipped {
		q.rank.push(s)
	}
	clear(skipped)
	c.out, c.skipped = out, skipped[:0]
	return out
}

// snapshot copies the counters and derives the gauges and percentiles.
func (c *scheduler) snapshot() Snapshot {
	snap := Snapshot{
		Submitted: int64(c.admitted),
		Completed: int64(c.completed),
		Failed:    int64(c.failed),
		Canceled:  int64(c.canceled),
		Rejected:  int64(c.rejected),
		Expired:   int64(c.expired),
		Grants:    int64(c.grants),
		Coalesced: int64(c.coalesced),
		Refills:   int64(c.refills),
		Queued:    c.q.len(),
		Running:   c.running,
		CardsBusy: c.fleet.Cards - c.free.len(),
	}
	snap.QueueWaitP50, snap.QueueWaitP99 = percentiles(c.queueWait)
	snap.ExecP50, snap.ExecP99 = percentiles(c.exec)
	return snap
}
