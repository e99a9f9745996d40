package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// randomPendingSet draws n jobs with deliberately colliding priorities,
// deadlines and demands, so the rank order is decided at every tie-break
// level (priority, deadline, presence of a deadline, arrival seq).
func randomPendingSet(rng *rand.Rand, n int, t0 time.Time) []*pending {
	demands := []int{1, 2, 4, 6, 8}
	keys := []string{"", "conv", "bsgs"}
	out := make([]*pending, n)
	for i := range out {
		j := &Job{
			ID:       fmt.Sprintf("j%03d", i),
			Priority: rng.Intn(3),
			Cards:    demands[rng.Intn(len(demands))],
			BatchKey: keys[rng.Intn(len(keys))],
		}
		if rng.Intn(2) == 0 {
			// Few distinct deadlines, so deadline ties are common.
			j.Deadline = t0.Add(time.Duration(1+rng.Intn(4)) * time.Second)
		}
		out[i] = &pending{job: j, ticket: newTicket(j.ID), seq: uint64(i)}
	}
	return out
}

// clonePending deep-copies the scheduling-relevant state so the heap queue
// and the linear oracle never share mutable entries.
func clonePending(p *pending) *pending {
	j := *p.job
	return &pending{job: &j, ticket: p.ticket, submitted: p.submitted, seq: p.seq}
}

// TestPopFitMatchesLinearOracle drives random job sets through the indexed
// queue and the linear-scan reference with identical popFit/expire call
// sequences, and requires identical pops (job and backfill flag) at every
// step. This pins the heap's rankBefore invariant against the oracle that
// shares the comparator: any structural divergence (index corruption, a
// wrong sift, a stale demand count) shows up as a transcript mismatch.
func TestPopFitMatchesLinearOracle(t *testing.T) {
	t0 := time.Unix(9000, 0)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		set := randomPendingSet(rng, 2+rng.Intn(40), t0)
		hq := newAdmitQueue(len(set))
		lq := &linearQueue{max: len(set)}
		for _, p := range set {
			if err := hq.push(p); err != nil {
				t.Fatal(err)
			}
			if err := lq.push(clonePending(p)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; hq.len() > 0 || lq.len() > 0; step++ {
			if hq.len() != lq.len() {
				t.Fatalf("trial %d step %d: heap holds %d, linear holds %d", trial, step, hq.len(), lq.len())
			}
			switch rng.Intn(5) {
			case 0: // expire at a random instant; order differs by contract, compare sets
				now := t0.Add(time.Duration(rng.Intn(6)) * time.Second)
				he, le := hq.expire(now), lq.expire(now)
				hids, lids := idsOf(he), idsOf(le)
				sort.Strings(hids)
				sort.Strings(lids)
				if fmt.Sprint(hids) != fmt.Sprint(lids) {
					t.Fatalf("trial %d step %d: expire(%v) heap=%v linear=%v", trial, step, now, hids, lids)
				}
			default:
				free := 1 + rng.Intn(8)
				hp, hb := hq.popFit(free)
				lp, lb := lq.popFit(free)
				switch {
				case hp == nil && lp == nil:
					// Nothing fits either queue: force progress so the walk
					// terminates even when every remaining job is too wide.
					hp, hb = hq.popFit(8)
					lp, lb = lq.popFit(8)
				case hp == nil || lp == nil:
					t.Fatalf("trial %d step %d: popFit(%d) heap=%v linear=%v", trial, step, free, hp, lp)
				}
				if hp == nil {
					continue
				}
				if hp.job.ID != lp.job.ID || hb != lb {
					t.Fatalf("trial %d step %d: popFit(%d) heap=(%s,%v) linear=(%s,%v)",
						trial, step, free, hp.job.ID, hb, lp.job.ID, lb)
				}
			}
		}
	}
}

func idsOf(ps []*pending) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.job.ID
	}
	return out
}

// TestAllocateCardsMatchesLinearOracle compares the bitmap allocator with
// the pre-bitmap reference on random free sets: identical output, element
// for element, including the n<=0 and n>len(free) edge contracts.
func TestAllocateCardsMatchesLinearOracle(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		cps := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		fleet := cps * (1 + rng.Intn(8))
		var free []int
		for c := 0; c < fleet; c++ {
			if rng.Intn(3) > 0 {
				free = append(free, c)
			}
		}
		n := rng.Intn(fleet+2) - 1
		got := fmt.Sprint(allocateCards(free, n, cps))
		want := fmt.Sprint(allocateCardsLinear(free, n, cps))
		if got != want {
			t.Fatalf("trial %d: allocateCards(%v, %d, %d) = %s, oracle %s", trial, free, n, cps, got, want)
		}
	}
}

// TestFreeListSteadyStateMatchesOracle exercises the live bucket/bitmap
// structure through random take/add cycles — the steady state the scheduler
// actually runs in, where newFreeList is built once and mutated forever —
// and checks every take against the linear oracle applied to the enumerated
// free set.
func TestFreeListSteadyStateMatchesOracle(t *testing.T) {
	const fleet, cps = 64, 8
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		f := newFreeList(fleet, cps)
		var grants [][]int
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 && f.len() > 0 {
				n := 1 + rng.Intn(f.len())
				want := fmt.Sprint(allocateCardsLinear(f.freeCards(), n, cps))
				got := fmt.Sprint(f.take(n))
				if got != want {
					t.Fatalf("trial %d step %d: take(%d) = %s, oracle %s", trial, step, n, got, want)
				}
				grants = append(grants, parseCards(t, got, n))
			} else if len(grants) > 0 {
				i := rng.Intn(len(grants))
				f.add(grants[i])
				grants = append(grants[:i], grants[i+1:]...)
			}
		}
	}
}

func parseCards(t *testing.T, s string, n int) []int {
	t.Helper()
	out := make([]int, 0, n)
	var v int
	for _, field := range splitFields(s) {
		if _, err := fmt.Sscan(field, &v); err != nil {
			t.Fatalf("unparseable card list %q", s)
		}
		out = append(out, v)
	}
	return out
}

func splitFields(s string) []string {
	s = s[1 : len(s)-1] // strip [ ]
	if s == "" {
		return nil
	}
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	return out
}

// TestDispatchPassMatchesSequentialGrants proves the single-pass dispatcher
// equivalent to the legacy grant loop (repeated popFit + allocate against a
// shrinking free set) with coalescing off: same grants, same card sets, same
// backfill flags, in the same order.
func TestDispatchPassMatchesSequentialGrants(t *testing.T) {
	const fleet, cps = 32, 8
	t0 := time.Unix(9000, 0)
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		set := randomPendingSet(rng, 1+rng.Intn(30), t0)

		hq := newAdmitQueue(len(set))
		hf := newFreeList(fleet, cps)
		busy := 1 + rng.Intn(fleet)
		hf.take(busy) // random partial occupancy
		lq := &linearQueue{max: len(set)}
		lfree := hf.freeCards()
		for _, p := range set {
			if err := hq.push(p); err != nil {
				t.Fatal(err)
			}
			if err := lq.push(clonePending(p)); err != nil {
				t.Fatal(err)
			}
		}

		var want []string
		for {
			p, backfill := lq.popFit(len(lfree))
			if p == nil {
				break
			}
			cards := allocateCardsLinear(lfree, p.job.Cards, cps)
			lfree = removeCards(lfree, cards)
			want = append(want, fmt.Sprintf("%s %v backfill=%v", p.job.ID, cards, backfill))
		}

		var got []string
		for _, d := range dispatchPass(hq, hf, 1) {
			if len(d.riders) != 0 {
				t.Fatalf("trial %d: coalesce=1 produced riders", trial)
			}
			got = append(got, fmt.Sprintf("%s %v backfill=%v", d.lead.job.ID, d.cards, d.backfill))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: dispatch transcript diverged\ngot:  %v\nwant: %v", trial, got, want)
		}
	}
}

func removeCards(free, taken []int) []int {
	drop := map[int]bool{}
	for _, c := range taken {
		drop[c] = true
	}
	out := free[:0]
	for _, c := range free {
		if !drop[c] {
			out = append(out, c)
		}
	}
	return out
}

// TestDispatchPassCoalesces pins the rider contract: same batch key and the
// exact same demand ride the leader's grant in rank order, bounded by the
// coalesce limit; different keys or demands never mix.
func TestDispatchPassCoalesces(t *testing.T) {
	mk := func(id, key string, cards, pri int, seq uint64) *pending {
		return &pending{job: &Job{ID: id, BatchKey: key, Cards: cards, Priority: pri}, ticket: newTicket(id), seq: seq}
	}
	set := func() []*pending {
		return []*pending{
			mk("a0", "conv", 2, 0, 0),
			mk("a1", "conv", 2, 0, 1),
			mk("b0", "bsgs", 2, 0, 2),
			mk("a2", "conv", 2, 0, 3),
			mk("a3", "conv", 4, 0, 4), // same key, wrong demand: never a rider
		}
	}
	run := func(free int) (string, int) {
		q := newAdmitQueue(16)
		for _, p := range set() {
			if err := q.push(p); err != nil {
				t.Fatal(err)
			}
		}
		f := newFreeList(free, 8)
		var got []string
		for _, d := range dispatchPass(q, f, 3) {
			got = append(got, fmt.Sprintf("%s+%v", d.lead.job.ID, idsOf(d.riders)))
		}
		return fmt.Sprint(got), q.len()
	}

	// Plentiful cards: 12 free cards cover the whole 12-card demand, so the
	// scarcity gate keeps every job on its own grant — full parallelism.
	if got, left := run(12); got != "[a0+[] a1+[] b0+[] a2+[] a3+[]]" || left != 0 {
		t.Fatalf("plentiful transcript = %v (%d queued), want all solo grants", got, left)
	}
	// Starved fleet: after a0's grant only 2 cards remain, so a1 cannot be
	// followed by another conv grant and takes a2 as a rider (bounded by
	// coalesce-1 = 2, but a3's demand disqualifies it). b0 and a3 stay queued.
	if got, left := run(4); got != "[a0+[] a1+[a2]]" || left != 2 {
		t.Fatalf("starved transcript = %v (%d queued), want [a0+[] a1+[a2]]", got, left)
	}
}

// TestPopRefillFairness pins refill's fairness contract: a finishing grant
// is reused only by the job dispatch would pick anyway — an incompatible
// best-ranked job forces the cards back to the free list (popRefill nil) and
// stays queued, unharmed, at its rank.
func TestPopRefillFairness(t *testing.T) {
	q := newAdmitQueue(8)
	hi := &pending{job: &Job{ID: "hi", BatchKey: "bsgs", Cards: 2, Priority: 5}, ticket: newTicket("hi"), seq: 0}
	lo := &pending{job: &Job{ID: "lo", BatchKey: "conv", Cards: 2, Priority: 0}, ticket: newTicket("lo"), seq: 1}
	for _, p := range []*pending{hi, lo} {
		if err := q.push(p); err != nil {
			t.Fatal(err)
		}
	}
	// A conv grant finishes; the best-ranked fitting job is bsgs — refill
	// must refuse and leave both queued.
	if p := q.popRefill(2, "conv"); p != nil {
		t.Fatalf("refill grabbed %s past a better-ranked incompatible job", p.job.ID)
	}
	if q.len() != 2 {
		t.Fatalf("refused refill lost jobs: %d left, want 2", q.len())
	}
	// A bsgs grant finishes; the best-ranked fitting job shares its key.
	p := q.popRefill(2, "bsgs")
	if p == nil || p.job.ID != "hi" {
		t.Fatalf("refill = %v, want hi", p)
	}
	if q.len() != 1 {
		t.Fatalf("queue should hold just lo, %d left", q.len())
	}
}

// --- Microbenchmarks: the indexed hot path vs the linear baseline ---------
//
// The acceptance bar for the rework is a >=10x lower per-decision scheduler
// overhead at fleet scale (1024 cards, depth-4096 queue). BenchmarkPopFit /
// BenchmarkPopFitLinear measure one dispatch decision (pop the best fitting
// job, put it back); BenchmarkAllocateCards / BenchmarkAllocateCardsLinear
// measure one grant's card allocation. They are `go test -bench` tools;
// nothing publishes them.

const benchQueueDepth = 4096

func buildBenchQueue(push func(*pending) error) {
	rng := rand.New(rand.NewSource(77))
	demands := []int{1, 2, 4, 8, 16}
	t0 := time.Unix(9000, 0)
	for i := 0; i < benchQueueDepth; i++ {
		j := &Job{
			ID:       fmt.Sprintf("b%04d", i),
			Priority: rng.Intn(3),
			Cards:    demands[rng.Intn(len(demands))],
		}
		if i%2 == 0 {
			j.Deadline = t0.Add(time.Duration(1+rng.Intn(1000)) * time.Second)
		}
		if err := push(&pending{job: j, ticket: newTicket(j.ID), seq: uint64(i)}); err != nil {
			panic(err)
		}
	}
}

func BenchmarkPopFit(b *testing.B) {
	q := newAdmitQueue(benchQueueDepth)
	buildBenchQueue(q.push)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := q.popFit(4)
		q.requeue(p)
	}
}

func BenchmarkPopFitLinear(b *testing.B) {
	q := &linearQueue{max: benchQueueDepth}
	buildBenchQueue(q.push)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := q.popFit(4)
		if err := q.push(p); err != nil {
			b.Fatal(err)
		}
	}
}

const benchFleetCards, benchFleetCPS = 1024, 8

// benchOccupy paints a realistic fragmented occupancy: every other server
// half-busy, so best-fit has to hunt and spanning grants really span.
func benchOccupy(f *freeList) {
	for srv := 0; srv < benchFleetCards/benchFleetCPS; srv += 2 {
		for c := 0; c < benchFleetCPS/2; c++ {
			f.takeFromServer(srv, 1)
		}
	}
}

func BenchmarkAllocateCards(b *testing.B) {
	f := newFreeList(benchFleetCards, benchFleetCPS)
	benchOccupy(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cards := f.take(8)
		f.add(cards)
	}
}

func BenchmarkAllocateCardsLinear(b *testing.B) {
	f := newFreeList(benchFleetCards, benchFleetCPS)
	benchOccupy(f)
	free := f.freeCards()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cards := allocateCardsLinear(free, 8, benchFleetCPS); cards == nil {
			b.Fatal("allocation failed")
		}
	}
}
