//go:build race

package spectrum

// raceEnabled lets allocation-contract tests stand down under the race
// detector, where sync.Pool drops items at random.
const raceEnabled = true
