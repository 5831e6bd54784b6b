//go:build !race

// Package race reports whether the race detector is compiled in. Allocation
// guards are skipped under -race because race instrumentation itself
// allocates on synchronization operations.
package race

// Enabled reports whether the race detector is compiled in.
const Enabled = false
