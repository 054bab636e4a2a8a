//go:build race

package idspace

// raceEnabled reports whether the race detector is compiled in; the slab
// reuse pin skips under it (the detector makes sync.Pool drop items).
const raceEnabled = true
