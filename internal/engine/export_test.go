package engine

// MinPass exposes the automatic-compaction threshold to the external
// tests.
const MinPass = minPass

// FlushEvery exposes the batch in which a stripe flushes its count of
// superseding installs.
const FlushEvery = flushEvery

// SetMonoNow replaces the clock the commit path times attempts with, so
// a test can count its reads, and returns the function that restores
// it. A test that calls it must not run in parallel with the others.
func SetMonoNow(now func() int64) (restore func()) {
	old := monoNow
	monoNow = now
	return func() { monoNow = old }
}
