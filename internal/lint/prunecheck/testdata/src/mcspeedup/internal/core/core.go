// Package core is a minimal stub of mcspeedup/internal/core for the
// prunecheck testdata: the walker, the walk options, and the event-budget
// rule in both its flagged and its clean forms.
package core

// Options mirrors the real walk options.
type Options struct {
	MaxEvents int
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return 1_000_000
	}
	return o.MaxEvents
}

// hiWalker mirrors the real event walker.
type hiWalker struct{}

func (o Options) acquireWalker() *hiWalker  { return &hiWalker{} }
func (o Options) releaseWalker(w *hiWalker) {}

func (w *hiWalker) Next() bool { return false }

// disciplinedWalk budgets its walk through the maxEvents helper.
func disciplinedWalk(o Options) int {
	w := o.acquireWalker()
	defer o.releaseWalker(w)
	events := 0
	for events < o.maxEvents() {
		if !w.Next() {
			break
		}
		events++
	}
	return events
}

// fieldBudget reads the MaxEvents field directly instead of the helper —
// also fine.
func fieldBudget(o Options) {
	w := o.acquireWalker() // no diagnostic: MaxEvents consulted below
	defer o.releaseWalker(w)
	for i := 0; i < o.MaxEvents; i++ {
		if !w.Next() {
			break
		}
	}
}

// unbudgetedWalk walks with no event cap at all.
func unbudgetedWalk(o Options) {
	w := o.acquireWalker() // want `without consulting Options.MaxEvents`
	defer o.releaseWalker(w)
	for w.Next() {
	}
}
