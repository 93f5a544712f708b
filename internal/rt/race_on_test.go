//go:build race

package rt

// raceEnabled reports whether the race detector is compiled in; wall-clock
// ratios measured under its slowdown are not valid.
const raceEnabled = true
