package serve

import (
	"math/bits"
	"slices"
)

// freeList tracks the idle cards of the fleet with three indexed views, so
// allocation is O(servers) and release is O(cards released) — the old
// sorted-slice representation cost O(cards log cards) per allocation (a map
// rebuild plus sorts) and a full re-sort per release:
//
//   - bitmap: one bit per card, set = free. A bitmap is inherently sorted, so
//     release is pure bit-sets — the "merge two sorted slices" guarantee is
//     structural, there is no sort to forget.
//   - cnt: free-card count per server.
//   - bucket: for each free-count value k, a bitmap of the servers holding
//     exactly k free cards. Best-fit ("fullest server that still fits") is
//     the first non-empty bucket at k >= n; spanning ("emptiest-loaded
//     first") walks buckets downward. Lowest-set-bit iteration gives the
//     lowest-server-index tie-break for free.
//
// The allocation policy is byte-identical to the linear-scan reference
// (allocateCardsLinear in oracle_test.go, the differential oracle).
type freeList struct {
	cards int // fleet size (bitmap width)
	cps   int // cards per server
	width int // max free cards one server can hold = min(cps, cards)
	free  int // total free cards

	bitmap []uint64   // card c free <=> bit c set
	cnt    []int      // per-server free count
	bucket [][]uint64 // bucket[k]: server-index bitmap of servers with cnt == k

	picks []serverPick // take's spanning-grant scratch, reused
}

// serverPick is m cards a spanning grant takes from server srv.
type serverPick struct{ srv, m int }

// newFreeList builds the free list of an all-idle fleet.
func newFreeList(n, cps int) *freeList {
	if cps <= 0 {
		cps = 1
	}
	width := cps
	if width > n {
		width = n
	}
	nserv := (n + cps - 1) / cps
	f := &freeList{
		cards:  n,
		cps:    cps,
		width:  width,
		bitmap: make([]uint64, (n+63)/64),
		cnt:    make([]int, nserv),
		bucket: make([][]uint64, width+1),
	}
	words := (nserv + 63) / 64
	for k := range f.bucket {
		f.bucket[k] = make([]uint64, words)
	}
	for srv := 0; srv < nserv; srv++ {
		f.bucket[0][srv/64] |= 1 << uint(srv%64)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	f.add(all)
	return f
}

func (f *freeList) len() int { return f.free }

// moveBucket relocates a server between free-count buckets.
func (f *freeList) moveBucket(srv, from, to int) {
	if from == to {
		return
	}
	w, b := srv/64, uint(srv%64)
	f.bucket[from][w] &^= 1 << b
	f.bucket[to][w] |= 1 << b
}

// lowestServer returns the lowest server index set in a bucket bitmap, -1
// when the bucket is empty.
func lowestServer(bm []uint64) int {
	for wi, word := range bm {
		if word != 0 {
			return wi*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// takeFromServer removes the m lowest-numbered free cards of one server,
// maintaining every index, and appends them to dst.
func (f *freeList) takeFromServer(dst []int, srv, m int) []int {
	start := len(dst)
	lo := srv * f.cps
	hi := lo + f.cps
	if hi > f.cards {
		hi = f.cards
	}
	for w := lo / 64; w <= (hi-1)/64 && len(dst)-start < m; w++ {
		word := f.bitmap[w]
		// Mask the word down to this server's card range.
		if base := w * 64; base < lo {
			//lint:allow rawmod bitmap mask construction, not residue arithmetic
			word &^= (1 << uint(lo-base)) - 1
		}
		if base := w * 64; base+64 > hi {
			//lint:allow rawmod bitmap mask construction, not residue arithmetic
			word &= (1 << uint(hi-base)) - 1
		}
		for word != 0 && len(dst)-start < m {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			f.bitmap[w] &^= 1 << uint(b)
			dst = append(dst, w*64+b)
		}
	}
	n := len(dst) - start
	f.free -= n
	f.moveBucket(srv, f.cnt[srv], f.cnt[srv]-n)
	f.cnt[srv] -= n
	return dst
}

// take removes and returns n cards, minimizing the server span of the grant —
// a job confined to one server pays only in-server switch hops for its
// intra-job broadcasts, while every extra server turns them into inter-server
// transfers (hw.NetworkProfile).
//
// Policy, deterministic for a given free list:
//  1. If some server can hold the whole job, use the fullest-fitting server:
//     the one with the fewest free cards that still fit (best fit, so big
//     future jobs keep finding whole servers), lowest server index on ties.
//  2. Otherwise span servers, taking from the emptiest-loaded (most free
//     cards) servers first to touch as few servers as possible, lowest
//     server index on ties.
//
// Within a server, lowest-numbered cards are taken first. The result is
// sorted ascending. Callers guarantee n <= len(); n <= 0 returns nil.
func (f *freeList) take(n int) []int {
	if n <= 0 || n > f.free {
		return nil
	}
	// Best fit: the smallest per-server free count >= n that exists; the
	// lowest set bit of its bucket is the lowest-index such server.
	for k := n; k <= f.width; k++ {
		if srv := lowestServer(f.bucket[k]); srv >= 0 {
			return f.takeFromServer(make([]int, 0, n), srv, n)
		}
	}
	// Spanning grant: fullest pools first, lowest server index on ties.
	// Collect the per-server picks before mutating, then apply in server
	// order so the result comes out ascending without an element sort.
	picks := f.picks[:0]
	need := n
	for k := f.width; k >= 1 && need > 0; k-- {
		for wi, word := range f.bucket[k] {
			for word != 0 && need > 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				m := k
				if m > need {
					m = need
				}
				picks = append(picks, serverPick{wi*64 + b, m})
				need -= m
			}
			if need == 0 {
				break
			}
		}
	}
	slices.SortFunc(picks, func(a, b serverPick) int { return a.srv - b.srv })
	out := make([]int, 0, n)
	for _, p := range picks {
		out = f.takeFromServer(out, p.srv, p.m)
	}
	f.picks = picks
	return out
}

// add returns a grant's cards to the pool: pure bit-sets plus per-server
// count updates, O(len(cards)) with no sorting (a release used to re-sort
// the whole free list; the bitmap keeps card order by construction).
func (f *freeList) add(cards []int) {
	for _, c := range cards {
		f.bitmap[c/64] |= 1 << uint(c%64)
		srv := c / f.cps
		f.moveBucket(srv, f.cnt[srv], f.cnt[srv]+1)
		f.cnt[srv]++
	}
	f.free += len(cards)
}
