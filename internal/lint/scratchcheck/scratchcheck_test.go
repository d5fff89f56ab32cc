package scratchcheck_test

import (
	"testing"

	"mcspeedup/internal/lint/linttest"
	"mcspeedup/internal/lint/scratchcheck"
)

// TestScratchcheckBorrowDiscipline runs the borrow rules' flagged and
// clean cases over the stub core package in testdata/src.
func TestScratchcheckBorrowDiscipline(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/core", scratchcheck.Analyzer)
}

// TestScratchcheckEventBudget runs the event-budget rule's flagged and
// clean cases over the stub core package in testdata/budget/src.
func TestScratchcheckEventBudget(t *testing.T) {
	linttest.Run(t, "testdata/budget", "mcspeedup/internal/core", scratchcheck.Analyzer)
}
