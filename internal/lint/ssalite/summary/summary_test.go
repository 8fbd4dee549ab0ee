package summary_test

import (
	"testing"

	"golang.org/x/tools/go/analysis"

	"powerrchol/internal/lint/detflow"
	"powerrchol/internal/lint/linttest"
	"powerrchol/internal/lint/lockcheck"
	"powerrchol/internal/lint/sendblock"
)

// TestDependentsShareIndexConcurrently runs the three analyzers that
// share one summary Index concurrently on a package whose findings all
// come from imported facts, as the unitchecker does. Under -race it
// fails if the Index is written after pgfacts returns it.
func TestDependentsShareIndexConcurrently(t *testing.T) {
	linttest.RunAll(t, linttest.TestdataDir(t),
		[]*analysis.Analyzer{lockcheck.Analyzer, detflow.Analyzer, sendblock.Analyzer},
		"example.com/internal/core",
	)
}
