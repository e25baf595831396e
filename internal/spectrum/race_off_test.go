//go:build !race

package spectrum

const raceEnabled = false
