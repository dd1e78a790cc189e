//go:build race

// Package raceflag reports whether the binary was built with the race
// detector, the pattern of the standard library's internal/race.
// Allocation-count guards skip themselves under -race because sync.Pool
// deliberately drops a random 1/4 of Puts there, making AllocsPerRun
// nondeterministic; the plain `go test` pass still enforces them.
package raceflag

// Enabled is true when the binary was built with -race.
const Enabled = true
