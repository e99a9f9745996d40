package serve

import "time"

// pending is one admitted-but-not-yet-running job. The three *idx fields are
// the job's live positions inside the admission queue's indexes (rank heap,
// deadline heap, per-key heap); -1 means "not in that index". They are
// maintained by the heaps' swap callbacks so any entry can be removed in
// O(log n) without a scan.
type pending struct {
	job       *Job
	ticket    *Ticket
	submitted time.Time
	seq       uint64 // arrival order, the final tie-break

	rankIdx int // position in admitQueue.rank
	dlIdx   int // position in admitQueue.dl (-1: no deadline)
	keyIdx  int // position in admitQueue.byKey[job.BatchKey]
}

// rankBefore reports whether a should be served before b: higher priority
// first, then earlier deadline (no deadline ranks last), then arrival order.
// This is the single total order behind admission, dispatch and backfill, so
// scheduler decisions are deterministic for a given queue content. It is the
// heap invariant of admitQueue.rank, and the linear-scan oracle (linearQueue,
// oracle_test.go) consumes the very same function — the property tests pin
// the two against each other.
func rankBefore(a, b *pending) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	ad, bd := a.job.Deadline, b.job.Deadline
	if !ad.IsZero() || !bd.IsZero() {
		switch {
		case bd.IsZero():
			return true
		case ad.IsZero():
			return false
		case !ad.Equal(bd):
			return ad.Before(bd)
		}
	}
	return a.seq < b.seq
}

// deadlineBefore orders the expiry heap: earliest deadline first, arrival
// order on ties. Only jobs that carry a deadline enter the heap.
func deadlineBefore(a, b *pending) bool {
	if !a.job.Deadline.Equal(b.job.Deadline) {
		return a.job.Deadline.Before(b.job.Deadline)
	}
	return a.seq < b.seq
}

// pheap is an indexed binary min-heap of pending entries. The index callback
// keeps each entry's position field current across sifts, so removal by
// position — not just pop-min — stays O(log n). Three instances back the
// admission queue: the rank heap (rankBefore), the deadline heap
// (deadlineBefore) and one per-key heap per batch key (rankBefore again, so
// coalescing picks riders in the global service order).
type pheap struct {
	items []*pending
	less  func(a, b *pending) bool
	set   func(p *pending, i int)
}

func (h *pheap) len() int { return len(h.items) }

func (h *pheap) push(p *pending) {
	h.items = append(h.items, p)
	h.set(p, len(h.items)-1)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum entry (nil when empty).
func (h *pheap) pop() *pending {
	if len(h.items) == 0 {
		return nil
	}
	return h.remove(0)
}

// remove deletes and returns the entry at position i.
func (h *pheap) remove(i int) *pending {
	p := h.items[i]
	last := len(h.items) - 1
	h.swap(i, last)
	h.items[last] = nil // no stale reference in the backing array
	h.items = h.items[:last]
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
	h.set(p, -1)
	return p
}

func (h *pheap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.set(h.items[i], i)
	h.set(h.items[j], j)
}

// up sifts position i toward the root; it reports whether i moved.
func (h *pheap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *pheap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			min = right
		}
		if !h.less(h.items[min], h.items[i]) {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// admitQueue is the bounded admission queue, indexed three ways so the
// dispatch hot path never scans:
//
//   - rank: a heap in rankBefore order — pop-best is O(log n) instead of the
//     old O(n) best scan per grant.
//   - dl: a heap in deadline order over the entries that carry one — expiry
//     pops only the jobs actually due instead of sweeping the whole queue.
//   - byKey: one rank-ordered heap per batch key — coalescing pulls the
//     best-ranked compatible riders for a grant without touching the rest.
//   - demand: queued-job counts per card demand, so a dispatch pass against
//     fewer free cards than any queued job wants is a single map probe (the
//     common state at saturation, when the queue is full of jobs waiting for
//     a wide grant).
//
// Every entry leaves through detach, which unlinks it from all secondary
// indexes; the *idx fields on pending make each unlink O(log n).
type admitQueue struct {
	max    int
	rank   pheap
	dl     pheap
	byKey  map[string]*pheap
	demand map[int]int

	minDemand int // cached min key of demand; -1 = stale, recompute
}

func newAdmitQueue(max int) *admitQueue {
	q := &admitQueue{max: max}
	q.init()
	return q
}

// init wires the heap callbacks; the zero admitQueue calls it lazily so the
// struct-literal construction used throughout the tests keeps working.
func (q *admitQueue) init() {
	if q.rank.set != nil {
		return
	}
	q.rank = pheap{less: rankBefore, set: func(p *pending, i int) { p.rankIdx = i }}
	q.dl = pheap{less: deadlineBefore, set: func(p *pending, i int) { p.dlIdx = i }}
	q.byKey = map[string]*pheap{}
	q.demand = map[int]int{}
	q.minDemand = -1
}

func (q *admitQueue) len() int { return q.rank.len() }

// push admits p, or fails with ErrOverloaded when the queue is at capacity.
func (q *admitQueue) push(p *pending) error {
	q.init()
	if q.rank.len() >= q.max {
		return ErrOverloaded
	}
	q.requeue(p)
	return nil
}

// requeue inserts an entry into every index without the capacity check: the
// re-admission path for an entry popped provisionally (popRefill's
// incompatible case) that must go back even if the queue filled meanwhile.
func (q *admitQueue) requeue(p *pending) {
	q.init()
	p.dlIdx, p.keyIdx = -1, -1
	q.rank.push(p)
	if !p.job.Deadline.IsZero() {
		q.dl.push(p)
	}
	if key := p.job.BatchKey; key != "" {
		kh := q.byKey[key]
		if kh == nil {
			kh = &pheap{less: rankBefore, set: func(p *pending, i int) { p.keyIdx = i }}
			q.byKey[key] = kh
		}
		kh.push(p)
	}
	q.demand[p.job.Cards]++
	if q.minDemand >= 0 && p.job.Cards < q.minDemand {
		q.minDemand = p.job.Cards
	}
}

// detach unlinks an entry that has already left the rank heap from the
// deadline, key and demand indexes.
func (q *admitQueue) detach(p *pending) {
	if p.dlIdx >= 0 {
		q.dl.remove(p.dlIdx)
	}
	if p.keyIdx >= 0 {
		kh := q.byKey[p.job.BatchKey]
		kh.remove(p.keyIdx)
		if kh.len() == 0 {
			delete(q.byKey, p.job.BatchKey)
		}
	}
	if n := q.demand[p.job.Cards] - 1; n > 0 {
		q.demand[p.job.Cards] = n
	} else {
		delete(q.demand, p.job.Cards)
		if p.job.Cards == q.minDemand {
			q.minDemand = -1 // the cached min left the queue
		}
	}
}

// fitsAny reports whether any queued job's demand fits freeCards — the O(1)
// early-out that keeps dispatch cheap while the fleet is saturated.
func (q *admitQueue) fitsAny(freeCards int) bool {
	if q.rank.len() == 0 {
		return false
	}
	if q.minDemand < 0 {
		min := -1
		for d := range q.demand {
			if min < 0 || d < min {
				min = d
			}
		}
		q.minDemand = min
	}
	return q.minDemand <= freeCards
}

// popFit removes and returns the best-ranked job that fits freeCards, and
// whether granting it is a backfill (a better-ranked job remains waiting
// because its demand does not fit). Returns nil when nothing fits.
//
// Better-ranked jobs that do not fit are popped and pushed back, so the cost
// is O((s+1) log n) for s skipped entries — and the fitsAny probe means the
// saturated case (nothing fits) never touches the heap at all.
func (q *admitQueue) popFit(freeCards int) (p *pending, backfill bool) {
	q.init()
	if !q.fitsAny(freeCards) {
		return nil, false
	}
	var skipped []*pending
	for q.rank.len() > 0 {
		top := q.rank.pop()
		if top.job.Cards <= freeCards {
			p = top
			break
		}
		skipped = append(skipped, top)
	}
	for _, s := range skipped {
		q.rank.push(s)
	}
	if p == nil {
		return nil, false
	}
	q.detach(p)
	return p, len(skipped) > 0
}

// popRiders removes and returns up to max additional queued jobs compatible
// with a grant: same non-empty batch key and the exact same card demand, in
// rank order. Demand equality is load-bearing twice over — riders execute the
// leader's program shape on the leader's card set, and it guarantees a rider
// can never be one of dispatchPass's temporarily-popped skipped entries
// (skipped entries demand strictly more cards than the leader was granted).
func (q *admitQueue) popRiders(key string, cards, max int) []*pending {
	q.init()
	if key == "" || max <= 0 {
		return nil
	}
	kh := q.byKey[key]
	var out []*pending
	for len(out) < max && kh != nil && kh.len() > 0 {
		top := kh.items[0]
		if top.job.Cards != cards {
			break
		}
		q.rank.remove(top.rankIdx)
		q.detach(top) // removes from kh too
		out = append(out, top)
		if kh.len() == 0 {
			kh = nil
		}
	}
	return out
}

// popRefill hands a finishing grant's cards straight to the next compatible
// job: it pops the best-ranked job fitting the grant, and keeps it only when
// that job shares the grant's batch key (so the cards never bounce through
// the free list). An incompatible best-ranked job is pushed back untouched —
// the caller releases the cards and the normal dispatch path, with its
// locality-aware allocator, grants that job fresh ones. This keeps refill
// strictly fair: a grant is only ever reused by the job dispatch would have
// picked anyway.
func (q *admitQueue) popRefill(grantCards int, key string) *pending {
	if key == "" {
		return nil
	}
	p, _ := q.popFit(grantCards)
	if p == nil {
		return nil
	}
	if p.job.BatchKey != key {
		q.requeue(p)
		return nil
	}
	return p
}

// expire removes and returns jobs whose deadline has already passed, in
// deadline order. Cost is O(e log n) for e expired jobs: the deadline heap
// surfaces exactly the due entries, never the rest of the queue.
func (q *admitQueue) expire(now time.Time) []*pending {
	q.init()
	var out []*pending
	for q.dl.len() > 0 {
		top := q.dl.items[0]
		if !now.After(top.job.Deadline) {
			break
		}
		q.dl.remove(top.dlIdx)
		q.rank.remove(top.rankIdx)
		q.detach(top) // dlIdx already -1; unlinks key + demand
		out = append(out, top)
	}
	return out
}

// drain empties the queue (server shutdown), in rank order.
func (q *admitQueue) drain() []*pending {
	q.init()
	var out []*pending
	for q.rank.len() > 0 {
		p := q.rank.pop()
		q.detach(p)
		out = append(out, p)
	}
	return out
}
