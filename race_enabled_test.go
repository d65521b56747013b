//go:build race

package nocmap_test

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool drops a random share of the items put back, so pooled
// allocations cannot be gated.
const raceEnabled = true
