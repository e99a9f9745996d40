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

// Footprint runs p as Run does and reports how many shapes its runner
// compiled, and the bytes the allocator hands out at most for those shapes
// and for the runner's scratch.
func Footprint(p *task.Program, cfg Config) (shapes, shapeBytes, scratchBytes int, err error) {
	r := newRunner(p, &cfg, identity(p))
	if _, err := r.run(); err != nil {
		return 0, 0, 0, err
	}
	for _, sh := range r.shapes {
		shapes++
		ints := cap(sh.order) + len(sh.off) + len(sh.succ) // one array
		shapeBytes += held(int(unsafe.Sizeof(*sh))) + held(bytesOf(sh.dur)) + held(4*ints)
	}
	for _, b := range []int{
		bytesOf(r.at), bytesOf(r.busy), bytesOf(r.dur), bytesOf(r.compBase), bytesOf(r.commBase),
		bytesOf(r.readyID), bytesOf(r.doneID), bytesOf(r.edges), bytesOf(r.indeg), bytesOf(r.stack),
		bytesOf(r.recvs), bytesOf(r.phys),
	} {
		scratchBytes += held(b)
	}
	return shapes, shapeBytes, scratchBytes, nil
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
