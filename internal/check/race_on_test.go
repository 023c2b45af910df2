//go:build race

package check

// raceEnabled scales wall-clock limits: the race detector slows the
// certifier several times over.
const raceEnabled = true
