//go:build !race

// Package racedetect reports whether the binary was built with the race
// detector. Allocation-count tests import it: the detector instruments
// allocation, so testing.AllocsPerRun figures only mean something without it.
package racedetect

// Enabled is true under -race.
const Enabled = false
