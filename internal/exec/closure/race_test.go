//go:build race

package closure_test

// raceEnabled: under the race detector sync.Pool deliberately drops a
// quarter of what is Put, so per-call frame reuse cannot be asserted.
const raceEnabled = true
