//go:build race

package engine_test

// raceEnabled skips allocation counts: the race detector allocates on
// its own behalf.
const raceEnabled = true
