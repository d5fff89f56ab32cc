package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// FuzzWalkEquivalence drives the production walks and the oracle walks
// (oracle_test.go) over fuzzer-chosen random task sets and asserts they
// agree on every exact result, for all three analyses. The columnar
// plans and the skip certificates (incumbent ratio cutoffs, QPA
// fast-forward, infimum skips) must be behaviour-preserving on every
// input, not just the seeded corpus — any payload divergence or a
// production walk examining MORE events than the oracle is a bug.
func FuzzWalkEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(2), uint16(100))
	f.Add(int64(42), uint8(1), uint8(5), uint8(0), uint16(1))
	f.Add(int64(20260805), uint8(5), uint8(60), uint8(7), uint16(5000))
	f.Add(int64(-7), uint8(2), uint8(120), uint8(15), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maxPRaw, speedRaw uint8, budgetRaw uint16) {
		checkOracleEquivalence(t, seed, nRaw, maxPRaw, speedRaw, task.Time(budgetRaw)+1)
	})
}

// FuzzPlanEquivalence is FuzzWalkEquivalence with the reset budget pinned
// to its smallest value, so the columnar lowering is also fuzzed on the
// speed-for-reset walk's tightest budget.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(2))
	f.Add(int64(42), uint8(1), uint8(5), uint8(0))
	f.Add(int64(20260808), uint8(5), uint8(60), uint8(7))
	f.Add(int64(-11), uint8(2), uint8(120), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maxPRaw, speedRaw uint8) {
		checkOracleEquivalence(t, seed, nRaw, maxPRaw, speedRaw, 1)
	})
}

// checkOracleEquivalence is the body shared by both fuzz targets.
func checkOracleEquivalence(t *testing.T, seed int64, nRaw, maxPRaw, speedRaw uint8, budget task.Time) {
	rnd := rand.New(rand.NewSource(seed))
	s := randomSet(rnd, 1+int(nRaw%5), 3+int64(maxPRaw%120))
	if s.Validate() != nil {
		t.Skip() // randomSet can emit degenerate degraded tasks for tiny periods
	}
	// A generous MaxEvents keeps the walks exact; the equality
	// properties only bind when the oracle result is exact.
	o := Options{MaxEvents: 2_000_000}
	checkMinSpeedup(t, s, o)
	checkResetTime(t, s, rat.New(int64(speedRaw%40)+10, 10), o) // speed 1.0 .. 4.9
	checkMinSpeedForReset(t, s, budget, o)
}
