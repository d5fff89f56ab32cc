// Package cluster is a minimal stub of mcspeedup/internal/cluster for
// the lockcheck testdata: the blocking-under-mutex cases (migrated
// from clustercheck's rule 2 and metricscheck's lock rule) in flagged
// and clean form.
package cluster

import (
	"context"
	"io"
	"sync"

	"mcspeedup/internal/gate"
	"mcspeedup/internal/par"
)

// Node mirrors the real forwarding node's bookkeeping.
type Node struct {
	mu       sync.Mutex
	forwards map[string]int
	pool     *par.Pool
}

// Forward is the peer round-trip; its body is irrelevant here — what
// matters is that calling it is peer I/O.
func (n *Node) Forward(ctx context.Context, owner, path string, body io.Reader) ([]byte, error) {
	return nil, nil
}

// record is the clean bookkeeping form: short, straight-line critical
// section with nothing blocking inside.
func (n *Node) record(owner string) {
	n.mu.Lock()
	n.forwards[owner]++
	n.mu.Unlock()
}

// admitUnderLock blocks on pool admission inside the critical section.
func (n *Node) admitUnderLock(ctx context.Context, owner string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.pool.Acquire(ctx); err != nil { // want `while holding a mutex`
		return err
	}
	n.forwards[owner]++
	return nil
}

// lockedAdmit holds the lock across admission to the end of the
// function (metricscheck's former local rule, flagged case).
func (n *Node) lockedAdmit(ctx context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool.Acquire(ctx) // want `lockedAdmit calls mcspeedup/internal/par.Acquire while holding a mutex`
}

// admitUnlocked releases the lock before admitting: clean
// (metricscheck's former local rule, clean case).
func (n *Node) admitUnlocked(ctx context.Context) error {
	n.mu.Lock()
	n.mu.Unlock()
	return n.pool.Acquire(ctx)
}

// forwardUnderDeferredLock holds the mutex (deferred unlock) across
// the peer round-trip.
func (n *Node) forwardUnderDeferredLock(ctx context.Context, owner string) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forwards[owner]++
	return n.Forward(ctx, owner, "/v1/analyze", nil) // want `while holding a mutex`
}

// admitViaHelperUnderLock blocks two frames deep — the admission hides
// inside gate.Admit, and only its Blocks fact reveals it.
func (n *Node) admitViaHelperUnderLock(ctx context.Context, owner string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forwards[owner]++
	return gate.Admit(ctx) // want `while holding a mutex`
}

// admitViaChainUnderLock blocks three frames deep, through the
// laundered helper.
func (n *Node) admitViaChainUnderLock(ctx context.Context, owner string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forwards[owner]++
	return gate.AdmitVia(ctx) // want `while holding a mutex`
}

// disciplinedAdmit admits first, then takes the lock: clean.
func (n *Node) disciplinedAdmit(ctx context.Context, owner string) error {
	if err := n.pool.Acquire(ctx); err != nil {
		return err
	}
	defer n.pool.Release()
	n.mu.Lock()
	n.forwards[owner]++
	n.mu.Unlock()
	return nil
}

// lockedLaunch defines the flight under the lock but runs it later:
// the literal's body starts with no lock held, so the Forward inside
// is clean (the singleflight pattern).
func (n *Node) lockedLaunch(ctx context.Context, owner string) func() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.forwards[owner]++
	return func() ([]byte, error) {
		return n.Forward(ctx, owner, "/v1/analyze", nil)
	}
}
