// Package hold lives in a nested module (nested/go.mod), which the
// module runner must skip exactly as `go vet ./...` does: the arena
// retention below would be a borrowcheck diagnostic if it were scanned.
package hold

import "mcspeedup/internal/core"

var parked *core.Scratch

// Park retains its parameter in package state.
func Park(s *core.Scratch) {
	parked = s
}
