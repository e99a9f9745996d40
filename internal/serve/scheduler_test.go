package serve

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"time"
)

// freeCards enumerates the free set ascending.
func (f *freeList) freeCards() []int {
	out := make([]int, 0, f.free)
	for wi, word := range f.bitmap {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			out = append(out, wi*64+b)
		}
	}
	return out
}

// allocateCards drives freeList.take from an arbitrary free set: a list just
// wide enough for the set, every card taken, then the set released into it.
func allocateCards(free []int, n, cps int) []int {
	if n <= 0 || n > len(free) {
		return nil
	}
	max := 0
	for _, c := range free {
		if c >= max {
			max = c + 1
		}
	}
	f := newFreeList(max, cps)
	f.take(max)
	f.add(free)
	return f.take(n)
}

// TestAllocateCardsGolden pins the allocator byte-for-byte: best-fit single
// server when one fits, fullest-first spanning otherwise.
func TestAllocateCardsGolden(t *testing.T) {
	cases := []struct {
		name string
		free []int
		n    int
		cps  int
		want string
	}{
		{"whole-empty-fleet", []int{0, 1, 2, 3, 4, 5, 6, 7}, 4, 8, "[0 1 2 3]"},
		{"prefers-tighter-server", []int{0, 1, 2, 3, 4, 8, 9}, 2, 8, "[8 9]"},
		{"exact-fit-server", []int{0, 1, 2, 8, 9, 10, 11}, 4, 8, "[8 9 10 11]"},
		{"tie-breaks-low-server", []int{0, 1, 8, 9}, 2, 8, "[0 1]"},
		{"spans-fullest-first", []int{0, 1, 8, 9, 10, 16}, 5, 8, "[0 1 8 9 10]"},
		{"spans-three-servers", []int{0, 8, 16, 17}, 4, 8, "[0 8 16 17]"},
		{"whole-fleet", []int{0, 1, 2, 3, 8, 9, 10, 11}, 8, 8, "[0 1 2 3 8 9 10 11]"},
		{"n-zero", []int{0, 1}, 0, 8, "[]"},
		{"n-too-large", []int{0, 1}, 3, 8, "[]"},
	}
	for _, tc := range cases {
		got := fmt.Sprint(allocateCards(tc.free, tc.n, tc.cps))
		if got != tc.want {
			t.Errorf("%s: allocateCards(%v, %d, %d) = %s, want %s", tc.name, tc.free, tc.n, tc.cps, got, tc.want)
		}
	}
}

// TestQueueRankAndBackfillGolden pins the admission order and the backfill
// flag byte-for-byte: priority, then deadline, then arrival; a small job
// granted past a ranked-ahead big job is marked as backfill.
func TestQueueRankAndBackfillGolden(t *testing.T) {
	t0 := time.Unix(1000, 0)
	mk := func(id string, pri, cards int, deadline time.Duration, seq uint64) *pending {
		j := &Job{ID: id, Priority: pri, Cards: cards}
		if deadline > 0 {
			j.Deadline = t0.Add(deadline)
		}
		return &pending{job: j, ticket: newTicket(id), seq: seq}
	}
	q := &admitQueue{max: 16}
	for _, p := range []*pending{
		mk("big-high", 5, 8, 0, 0),
		mk("small-low", 0, 2, 0, 1),
		mk("small-mid", 2, 2, 0, 2),
		mk("small-dead", 2, 2, time.Minute, 3), // same priority, earlier via deadline
		mk("small-fifo", 2, 2, 0, 4),
	} {
		if err := q.push(p); err != nil {
			t.Fatal(err)
		}
	}
	var log []string
	for free := 4; q.len() > 0; {
		p, backfill := q.popFit(free)
		if p == nil {
			free = 8 // open up the fleet so big-high finally fits
			continue
		}
		log = append(log, fmt.Sprintf("grant %s cards=%d backfill=%v", p.job.ID, p.job.Cards, backfill))
	}
	got := strings.Join(log, "\n")
	want := strings.Join([]string{
		// 4 free cards: big-high (8 cards) cannot fit, every small grant is
		// a backfill past it, in deadline-then-priority-then-FIFO order.
		"grant small-dead cards=2 backfill=true",
		"grant small-mid cards=2 backfill=true",
		"grant small-fifo cards=2 backfill=true",
		"grant small-low cards=2 backfill=true",
		// 8 free cards: the big job finally runs, not a backfill.
		"grant big-high cards=8 backfill=false",
	}, "\n")
	if got != want {
		t.Errorf("decision transcript mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDispatchTranscriptGolden replays a fixed-seed workload through the
// pure scheduler pieces (queue + free list) with a fake clock and asserts
// the full decision transcript byte-for-byte. This is the determinism
// contract: same seed, same fleet, same decisions.
func TestDispatchTranscriptGolden(t *testing.T) {
	shapes := []Shape{
		{Name: "small", Weight: 3, Cards: 2, Priority: 0},
		{Name: "large", Weight: 1, Cards: 6, Priority: 1},
	}
	w := Workload{Seed: 7, Rate: 50, Horizon: 200 * time.Millisecond, Shapes: shapes}
	arrivals, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 6 {
		t.Fatalf("seed 7 should yield at least 6 arrivals in 200ms at 50/s, got %d", len(arrivals))
	}
	arrivals = arrivals[:6]

	const cps = 4
	free := newFreeList(8, cps) // two servers of four
	q := &admitQueue{max: 16}
	var log []string
	var seq uint64
	running := map[string][]int{}

	dispatch := func() {
		for {
			p, backfill := q.popFit(free.len())
			if p == nil {
				return
			}
			cards := free.take(p.job.Cards)
			running[p.job.ID] = cards
			log = append(log, fmt.Sprintf("start %-10s cards=%v backfill=%v", p.job.ID, cards, backfill))
		}
	}
	finish := func(id string) {
		free.add(running[id])
		delete(running, id)
		log = append(log, fmt.Sprintf("done  %s", id))
		dispatch()
	}

	// Interleave the six arrivals with two completions, all deterministic.
	for i, a := range arrivals {
		if err := q.push(&pending{job: a.Job, ticket: newTicket(a.Job.ID), seq: seq}); err != nil {
			log = append(log, fmt.Sprintf("shed  %s (%v)", a.Job.ID, err))
			continue
		}
		seq++
		log = append(log, fmt.Sprintf("admit %-10s shape=%s", a.Job.ID, a.Shape))
		dispatch()
		if i == 3 {
			finish(arrivals[0].Job.ID)
		}
	}
	got := strings.Join(log, "\n")
	want := strings.Join([]string{
		"admit small-0000 shape=small",
		"start small-0000 cards=[0 1] backfill=false",
		"admit large-0001 shape=large",
		// 6 cards do not fit either half-full server: the grant spans both,
		// taking the emptier server (4..7) whole plus two from server 0.
		"start large-0001 cards=[2 3 4 5 6 7] backfill=false",
		"admit small-0002 shape=small",
		"admit small-0003 shape=small",
		"done  small-0000",
		// The freed pair goes to the earliest queued small, FIFO within rank.
		"start small-0002 cards=[0 1] backfill=false",
		"admit small-0004 shape=small",
		"admit small-0005 shape=small",
	}, "\n")
	if got != want {
		t.Errorf("dispatch transcript mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestQueueExpiry sheds queued jobs whose deadline passed, via the fake
// clock, without touching jobs that still have time.
func TestQueueExpiry(t *testing.T) {
	t0 := time.Unix(5000, 0)
	q := &admitQueue{max: 8}
	mk := func(id string, dl time.Time) *pending {
		return &pending{job: &Job{ID: id, Cards: 1, Deadline: dl}, ticket: newTicket(id)}
	}
	if err := q.push(mk("stale", t0.Add(10*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk("fresh", t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(&pending{job: &Job{ID: "forever", Cards: 1}, ticket: newTicket("forever")}); err != nil {
		t.Fatal(err)
	}
	expired := q.expire(t0.Add(time.Second))
	if len(expired) != 1 || expired[0].job.ID != "stale" {
		t.Fatalf("expire returned %d jobs, want just 'stale'", len(expired))
	}
	if q.len() != 2 {
		t.Fatalf("queue kept %d jobs, want 2", q.len())
	}
}

// TestWorkloadDeterminism: the same seed yields byte-for-byte identical
// arrival sequences; a different seed diverges.
func TestWorkloadDeterminism(t *testing.T) {
	shapes := []Shape{
		{Name: "a", Weight: 1, Cards: 1},
		{Name: "b", Weight: 1, Cards: 2},
	}
	gen := func(seed int64) string {
		w := Workload{Seed: seed, Rate: 100, Horizon: 100 * time.Millisecond, Shapes: shapes}
		arr, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, a := range arr {
			fmt.Fprintf(&sb, "%s@%dus ", a.Job.ID, a.At.Microseconds())
		}
		return sb.String()
	}
	if gen(42) != gen(42) {
		t.Fatal("same seed produced different arrival sequences")
	}
	if gen(42) == gen(43) {
		t.Fatal("different seeds produced identical arrival sequences")
	}
}
