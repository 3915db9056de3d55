package infer

// PseudoTable is the shared timing-mode token table, for tests outside the
// package that check nothing above the engine writes to it.
var PseudoTable = pseudoTable
