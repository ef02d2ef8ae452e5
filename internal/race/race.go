//go:build race

// Package race reports whether the binary was built with the race
// detector, for tests whose assertions it invalidates (allocation budgets:
// the detector's instrumentation allocates).
package race

// Enabled is true in -race builds.
const Enabled = true
