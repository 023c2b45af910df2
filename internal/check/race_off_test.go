//go:build !race

package check

const raceEnabled = false
