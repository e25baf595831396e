//go:build race

package obs

// raceEnabled lets allocation-contract tests stand down under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
