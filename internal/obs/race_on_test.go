//go:build race

package obs

// raceEnabled reports whether the race detector is compiled in; the
// Observe-overhead budget test skips under it.
const raceEnabled = true
