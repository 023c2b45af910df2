package core

// BuildFromRow is the construction for an arbitrary row, so a test can
// feed it a row the table does not hold.
var BuildFromRow = buildExecution
