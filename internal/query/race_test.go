//go:build race

package query

// raceEnabled reports whether this test binary was built with -race.
// Allocation-count guards over the engine's sync.Pool scratch skip
// themselves under the race detector, which drops a random 1/4 of Puts and
// makes AllocsPerRun nondeterministic; the plain `go test` pass still
// enforces them.
const raceEnabled = true
