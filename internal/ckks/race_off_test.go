//go:build !race

package ckks

const raceEnabled = false
