//go:build !race

package raceflag

// Enabled is true when the binary was built with -race.
const Enabled = false
