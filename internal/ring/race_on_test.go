//go:build race

package ring

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so byte counts that rely on pool reuse do not hold.
const raceEnabled = true
