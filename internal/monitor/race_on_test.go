//go:build race

package monitor

// raceEnabled skips allocation counts: the race detector allocates on
// its own behalf.
const raceEnabled = true
