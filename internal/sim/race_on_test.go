//go:build race

package sim_test

// raceEnabled: the race detector's instrumentation allocates, so allocation
// bounds do not hold under it.
const raceEnabled = true
