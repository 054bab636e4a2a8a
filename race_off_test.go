//go:build !race

package treep

// raceEnabled reports whether the race detector is compiled in; see
// TestSimNetworkReadAllocs.
const raceEnabled = false
