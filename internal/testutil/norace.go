//go:build !race

package testutil

// RaceEnabled reports whether the binary was built with -race, which
// perturbs allocation counts: allocation guards skip themselves under it.
const RaceEnabled = false
