// Package core is a minimal stub of mcspeedup/internal/core for the
// scratchcheck testdata. The rules only apply inside internal/core, so
// the borrow rules' flagged and clean cases live here, at the scoped
// import path; the event-budget rule's live in testdata/budget.
package core

// Scratch mirrors the real single-goroutine walker arena.
type Scratch struct {
	inUse bool
}

// hiWalker mirrors the real event walker.
type hiWalker struct{}

func (w *hiWalker) Next() bool { return false }

// Options mirrors the real analysis options; its Scratch field is the
// sanctioned per-call channel and must not be flagged by the
// struct-field rule (which, additionally, does not apply inside core).
type Options struct {
	Scratch   *Scratch
	MaxEvents int
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return 1_000_000
	}
	return o.MaxEvents
}

func (o Options) acquireWalker() *hiWalker  { return &hiWalker{} }
func (o Options) releaseWalker(w *hiWalker) {}

func analyzeOpts(o Options) int { return 0 }

func disciplined(o Options) int {
	w := o.acquireWalker()
	defer o.releaseWalker(w)
	_ = w
	return o.maxEvents()
}

func leaky(o Options) int {
	w := o.acquireWalker() // want `must be immediately followed by defer`
	_ = w
	return o.maxEvents()
}

func nested(o Options) int {
	w := o.acquireWalker()
	defer o.releaseWalker(w)
	_ = w
	_ = o.maxEvents()
	return analyzeOpts(o) // want `passed to a nested call while its Scratch walker is borrowed`
}
