package pii

// DiffRecordAutomaton exposes the builder-vs-oracle comparison to the
// external test package, which can reach the catalog identities.
var DiffRecordAutomaton = diffRecordAutomaton
