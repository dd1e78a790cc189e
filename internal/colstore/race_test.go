//go:build race

package colstore

// raceEnabled reports whether this test binary was built with -race.
// Allocation-count guards skip themselves under the race detector because
// sync.Pool deliberately drops a random 1/4 of Puts there, making
// AllocsPerRun nondeterministic; the plain `go test` pass still enforces
// them.
const raceEnabled = true
