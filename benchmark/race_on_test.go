//go:build race

package main

// raceEnabled: the race detector multiplies the cost of every
// instrumented memory access, so throughput ratios mean nothing.
const raceEnabled = true
