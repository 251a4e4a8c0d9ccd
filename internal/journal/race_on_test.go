//go:build race

package journal

// raceEnabled reports whether the race detector is compiled in; wall-clock
// guards skip under it.
const raceEnabled = true
