//go:build !race

package hefloat

const raceEnabled = false
