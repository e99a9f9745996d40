package serve

import (
	"sort"
	"time"
)

// The linear-scan originals of the indexed admission queue and the bitmap
// card allocator. They live in a test file because only the property tests
// (queue_property_test.go) and BenchmarkPopFit/BenchmarkAllocateCards use
// them: the differential oracle and the microbenchmark baseline.

// linearQueue is the pre-indexed admission queue: arrival-ordered slice,
// rank computed by scanning. It is kept as the differential oracle — the
// property tests drive random job sets through both implementations and the
// scheduler microbenchmarks report the scan-vs-heap gap — and it shares
// rankBefore with the heap, so the two can only diverge structurally.
type linearQueue struct {
	max   int
	items []*pending
}

func (q *linearQueue) len() int { return len(q.items) }

func (q *linearQueue) push(p *pending) error {
	if len(q.items) >= q.max {
		return ErrOverloaded
	}
	q.items = append(q.items, p)
	return nil
}

func (q *linearQueue) popFit(freeCards int) (p *pending, backfill bool) {
	best, bestIdx := (*pending)(nil), -1
	for i, it := range q.items {
		if it.job.Cards > freeCards {
			continue
		}
		if best == nil || rankBefore(it, best) {
			best, bestIdx = it, i
		}
	}
	if best == nil {
		return nil, false
	}
	skippedBetter := false
	for _, it := range q.items {
		if it != best && it.job.Cards > freeCards && rankBefore(it, best) {
			skippedBetter = true
			break
		}
	}
	q.items = append(q.items[:bestIdx], q.items[bestIdx+1:]...)
	return best, skippedBetter
}

func (q *linearQueue) expire(now time.Time) []*pending {
	var out []*pending
	kept := q.items[:0]
	for _, it := range q.items {
		if !it.job.Deadline.IsZero() && now.After(it.job.Deadline) {
			out = append(out, it)
			continue
		}
		kept = append(kept, it)
	}
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = kept
	return out
}

// allocateCardsLinear is the pre-bitmap reference allocator: group by
// server with a map, best-fit scan, sort-based spanning. Kept verbatim as
// the differential oracle for the bitmap path (property tests) and as the
// microbenchmark baseline.
func allocateCardsLinear(free []int, n, cardsPerServer int) []int {
	if n <= 0 || n > len(free) {
		return nil
	}
	byServer := map[int][]int{}
	var servers []int
	for _, c := range free {
		srv := c / cardsPerServer
		if _, ok := byServer[srv]; !ok {
			servers = append(servers, srv)
		}
		byServer[srv] = append(byServer[srv], c)
	}
	sort.Ints(servers)

	bestSrv, bestFree := -1, 0
	for _, srv := range servers {
		if have := len(byServer[srv]); have >= n {
			if bestSrv < 0 || have < bestFree {
				bestSrv, bestFree = srv, have
			}
		}
	}
	if bestSrv >= 0 {
		out := make([]int, n)
		copy(out, byServer[bestSrv][:n])
		return out
	}

	sort.SliceStable(servers, func(a, b int) bool {
		fa, fb := len(byServer[servers[a]]), len(byServer[servers[b]])
		if fa != fb {
			return fa > fb
		}
		return servers[a] < servers[b]
	})
	out := make([]int, 0, n)
	for _, srv := range servers {
		pool := byServer[srv]
		need := n - len(out)
		if need <= 0 {
			break
		}
		if need > len(pool) {
			need = len(pool)
		}
		out = append(out, pool[:need]...)
	}
	sort.Ints(out)
	return out
}
