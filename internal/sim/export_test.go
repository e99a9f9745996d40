package sim

import (
	"unsafe"

	"hydra/internal/task"
)

// Exported for the external test package, which lowers real networks
// through internal/experiments (an import cycle from package sim).
var (
	RunOnOracle        = runOnOracle
	RandomValidProgram = randomValidProgram
)

// Footprint runs p as Run does, without a trace, and reports how many steps
// its runner compiled, and the bytes the allocator hands out at most for
// their memos and for the one compile scratch every step reuses.
func Footprint(p *task.Program, cfg Config) (compiled, memoBytes, scratchBytes int, err error) {
	cfg.CollectTrace = false
	r := newRunner(p, &cfg, identity(p))
	if _, err := r.run(); err != nil {
		return 0, 0, 0, err
	}
	for _, m := range r.memos {
		compiled++
		memoBytes += held(int(unsafe.Sizeof(*m))) + held(bytesOf(m.busy))
	}
	for _, b := range []int{
		bytesOf(r.dur), bytesOf(r.at), bytesOf(r.compBase), bytesOf(r.commBase), bytesOf(r.doneID),
		bytesOf(r.edges), bytesOf(r.off), bytesOf(r.succ), bytesOf(r.indeg), bytesOf(r.stack),
	} {
		scratchBytes += held(b)
	}
	// The table of sends and the physical peer list grow on demand: the arrays
	// they outgrew hold at most as much again.
	scratchBytes += 2*held(bytesOf(r.sends)) + 2*held(bytesOf(r.phys))
	return compiled, memoBytes, scratchBytes, nil
}

// bytesOf is the size of s's array.
func bytesOf[T any](s []T) int {
	var v T
	return cap(s) * int(unsafe.Sizeof(v))
}

// held bounds what the allocator hands out for n bytes: up to 32 KB, a size
// class wastes at most an eighth (small ones a few bytes more); above, an
// object takes whole 8 KB pages.
func held(n int) int {
	if n <= 32<<10 {
		return n + n/8 + 16
	}
	return (n + 8<<10 - 1) &^ (8<<10 - 1)
}
