//go:build race

package racedetect

// Enabled is true under -race.
const Enabled = true
