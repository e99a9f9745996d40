//go:build race

package experiments

// raceEnabled: the race detector's instrumentation allocates, so allocation
// counts do not hold under it.
const raceEnabled = true
