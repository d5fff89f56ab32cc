// Package suite declares the repository's full analyzer roster — the
// single list cmd/mcs-vet, the vet wall-time benchmark in cmd/mcs-bench
// and the module-runner tests all drive, so a new analyzer registered
// here is everywhere at once.
package suite

import (
	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/borrowcheck"
	"mcspeedup/internal/lint/ctxcheck"
	"mcspeedup/internal/lint/deltacheck"
	"mcspeedup/internal/lint/determcheck"
	"mcspeedup/internal/lint/lockcheck"
	"mcspeedup/internal/lint/metricscheck"
	"mcspeedup/internal/lint/plancheck"
	"mcspeedup/internal/lint/ratcheck"
	"mcspeedup/internal/lint/scratchcheck"
)

// Analyzers is the suite, in the order each package's passes run: the
// per-package determinism and theorem-shape analyzers first, then the
// fact-based interprocedural ones.
var Analyzers = []*lint.Analyzer{
	ratcheck.Analyzer,
	determcheck.Analyzer,
	scratchcheck.Analyzer,
	metricscheck.Analyzer,
	plancheck.Analyzer,
	deltacheck.Analyzer,
	borrowcheck.Analyzer,
	ctxcheck.Analyzer,
	lockcheck.Analyzer,
}
