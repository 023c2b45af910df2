package engine

// MinPass exposes the automatic-compaction threshold to the external
// tests.
const MinPass = minPass
