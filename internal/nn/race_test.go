//go:build race

package nn

// raceEnabled reports a -race build. Its sync.Pool drops items on
// purpose, so allocation counts there measure nothing.
const raceEnabled = true
