//go:build !race

package fhir

const raceEnabled = false
