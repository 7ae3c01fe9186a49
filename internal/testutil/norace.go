//go:build !race

package testutil

// RaceEnabled reports whether the binary was built with the race detector.
// Its instrumentation allocates on its own account, so allocation budgets
// (testing.AllocsPerRun) are asserted only when this is false.
const RaceEnabled = false
