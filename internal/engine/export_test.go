package engine

// MinPass exposes the automatic-compaction threshold to the external
// tests.
const MinPass = minPass

// FlushEvery exposes the batch in which a stripe flushes its count of
// superseding installs.
const FlushEvery = flushEvery
