// Package core is the plancheck testdata mirror of internal/core: the
// walker shape and the ways the analysis layer reaches the columnar
// plan, all clean here except a hand-built plan.
package core

import "mcspeedup/internal/dbf"

// hiWalker mirrors the real walker: it embeds the plan as a zero-value
// field (fine — not a composite literal).
type hiWalker struct {
	plan dbf.Plan
}

// Reset compiles the walker's plan.
func (w *hiWalker) Reset(s []int) {
	w.plan.Compile(s, 0)
}

// Plan hands out the compiled plan.
func (w *hiWalker) Plan() *dbf.Plan { return &w.plan }

// planWalk probes through the walker's plan.
func planWalk(s []int) int64 {
	w := &hiWalker{}
	w.Reset(s)
	return w.Plan().Value(4)
}

// compiled calls the package-level compiler.
func compiled(s []int) *dbf.Plan {
	return dbf.CompilePlan(s, 0)
}

// subset recompiles rows.
func subset(p *dbf.Plan, s, idx []int) {
	p.CompileSubset(s, idx, 0)
}

// memoProbe consults the fingerprint-keyed memo.
func memoProbe(m *dbf.PointMemo, s []int) int64 {
	return m.Value(s, 0, 8)
}

// handRolled builds a plan by literal, bypassing the compile entry
// points (flagged in every package outside internal/dbf).
func handRolled() dbf.Plan {
	return dbf.Plan{} // want `dbf.Plan composite literal`
}

// probeOnly consumes an already-compiled plan.
func probeOnly(p *dbf.Plan, dst, deltas []int64) []int64 {
	if _, ok := p.ValueCapped(3, 7); !ok {
		return dst
	}
	return p.BulkEval(dst, deltas)
}
