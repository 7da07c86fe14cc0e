//go:build !race

package engine

// raceEnabled reports a -race build. Its sync.Pool drops items on
// purpose, so allocation counts there measure nothing.
const raceEnabled = false
