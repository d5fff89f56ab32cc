package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Property tests pinning the incumbent bulk-skip pruning inside the event
// walks: for every exact result, the pruned production walks and the
// unpruned oracle walks (oracle_test.go) must agree on every payload
// field — only the Events/Jumps accounting may differ, and Events never
// upward. The skip certificates are only allowed to discard events they
// have proved irrelevant, so any divergence here is a soundness bug.

// prunedSets yields generator sets plus, when feasible, their y = 2
// MinimalX preparations — the configuration the experiments analyze.
func prunedSets(t *testing.T, n int) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(20260805))
	p := gen.Defaults()
	var sets []task.Set
	for i := 0; i < n; i++ {
		u := 0.4 + 0.5*rnd.Float64()
		s := p.MustSet(rnd, u)
		sets = append(sets, s)
		if shaped, err := s.DegradeLO(rat.Two); err == nil {
			if _, prepared, err := MinimalX(shaped); err == nil {
				sets = append(sets, prepared)
			}
		}
	}
	return sets
}

// fmsPreparedSet returns the flight-management set with y = 2 degradation
// and minimal virtual deadlines — the configuration of Fig. 5b.
func fmsPreparedSet(t testing.TB) task.Set {
	t.Helper()
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	set, err = set.DegradeLO(rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	_, prepared, err := MinimalX(set)
	if err != nil {
		t.Fatal(err)
	}
	return prepared
}

func TestMinSpeedupPrunedUnprunedIdentical(t *testing.T) {
	for _, s := range prunedSets(t, 30) {
		checkMinSpeedup(t, s, Options{})
	}
}

func TestResetTimePrunedUnprunedIdentical(t *testing.T) {
	speeds := []rat.Rat{rat.New(9, 10), rat.One, rat.New(3, 2), rat.Two, rat.FromInt64(3)}
	for _, s := range prunedSets(t, 20) {
		for _, sp := range speeds {
			checkResetTime(t, s, sp, Options{})
		}
	}
}

func TestMinSpeedForResetPrunedUnprunedIdentical(t *testing.T) {
	budgets := []task.Time{1, 7, 100, 5_000, 50_000}
	for _, s := range prunedSets(t, 20) {
		for _, b := range budgets {
			checkMinSpeedForReset(t, s, b, Options{})
		}
	}
}

// TestCapHintNeverChangesDecision pins Options.CapHint's contract
// directly: against arbitrary caps, the early cap-decision walk must
// reach the same accept/reject verdict as the oracle's exact supremum,
// with a truthful LowerBound.
func TestCapHintNeverChangesDecision(t *testing.T) {
	caps := []rat.Rat{rat.New(1, 2), rat.One, rat.New(5, 4), rat.New(3, 2), rat.Two, rat.FromInt64(4)}
	for i, s := range prunedSets(t, 15) {
		full, err := oracleMinSpeedup(s, Options{})
		if err != nil || !full.Exact {
			continue
		}
		for _, cap := range caps {
			res, err := MinSpeedupOpts(s, Options{CapHint: cap})
			if err != nil {
				t.Fatalf("set %d cap %v: %v", i, cap, err)
			}
			if got, want := res.Speedup.Cmp(cap) <= 0, full.Speedup.Cmp(cap) <= 0; got != want {
				t.Fatalf("set %d cap %v: hinted decision %v != exact decision %v (hinted %+v, oracle %+v)",
					i, cap, got, want, res, full)
			}
			if res.LowerBound.Cmp(full.Speedup) > 0 {
				t.Fatalf("set %d cap %v: LowerBound %v exceeds exact supremum %v", i, cap, res.LowerBound, full.Speedup)
			}
			if res.Speedup.Cmp(res.LowerBound) < 0 {
				t.Fatalf("set %d cap %v: Speedup %v below LowerBound %v", i, cap, res.Speedup, res.LowerBound)
			}
		}
	}
}

// TestMinSpeedupWarmWitnessInvariance: the WarmWitness seed must not be
// able to change any exact result — it only primes the skip cutoff, whose
// certificate is strict. Degenerate witnesses (zero, one, beyond the
// hyperperiod, beyond the skip horizon) must be equally harmless.
func TestMinSpeedupWarmWitnessInvariance(t *testing.T) {
	for i, s := range prunedSets(t, 20) {
		base, err := MinSpeedup(s)
		if err != nil || !base.Exact {
			continue
		}
		witnesses := []task.Time{0, 1, 2, base.WitnessDelta, base.WitnessDelta + 1,
			1 << 20, skipHorizon, skipHorizon + 1}
		for _, wd := range witnesses {
			got, err := MinSpeedupOpts(s, Options{WarmWitness: wd})
			if err != nil {
				t.Fatalf("set %d witness %d: %v", i, wd, err)
			}
			if !got.Speedup.Eq(base.Speedup) || !got.LowerBound.Eq(base.LowerBound) ||
				got.Exact != base.Exact || got.WitnessDelta != base.WitnessDelta {
				t.Fatalf("set %d witness %d: %+v != baseline %+v:\n%s", i, wd, got, base, s.Table())
			}
		}
	}
}

// The oracle's event counts on the prepared FMS set (Fig. 5b) at speed 2
// and reset budget 50 000: the plain walks' cost, against which the
// pruning's win is measured. The oracle is frozen, so these only move if
// the FMS set or its preparation does.
const (
	fmsOracleSpeedupEvents       = 2436
	fmsOracleResetEvents         = 27
	fmsOracleSpeedForResetEvents = 303
)

// TestFMSPruningStrictlyFewerEvents pins the acceptance criterion on the
// paper's flight-management set: each production walk must examine
// strictly fewer events than the oracle, with at least one bulk skip, on
// all three analyses.
func TestFMSPruningStrictlyFewerEvents(t *testing.T) {
	prepared := fmsPreparedSet(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sp, err := MinSpeedup(prepared)
	must(err)
	spO, err := oracleMinSpeedup(prepared, Options{})
	must(err)
	rr, err := ResetTime(prepared, rat.Two)
	must(err)
	rrO, err := oracleResetTime(prepared, rat.Two, Options{})
	must(err)
	sr, err := MinSpeedForReset(prepared, 50_000)
	must(err)
	srO, err := oracleMinSpeedForReset(prepared, 50_000, Options{})
	must(err)
	for _, c := range []struct {
		name                        string
		events, jumps, oracle, want int
	}{
		{"MinSpeedup", sp.Events, sp.Jumps, spO.Events, fmsOracleSpeedupEvents},
		{"ResetTime", rr.Events, rr.Jumps, rrO.Events, fmsOracleResetEvents},
		{"MinSpeedForReset", sr.Events, sr.Jumps, srO.Events, fmsOracleSpeedForResetEvents},
	} {
		if c.oracle != c.want {
			t.Errorf("%s: oracle examined %d events, pinned %d", c.name, c.oracle, c.want)
		}
		if c.events >= c.oracle || c.jumps == 0 {
			t.Errorf("%s: events=%d jumps=%d vs oracle events=%d — expected a strict win",
				c.name, c.events, c.jumps, c.oracle)
		}
	}
}

// TestWalkerSkipToMatchesReset: after SkipTo(target) the walker must hold
// exactly the state a fresh walk would reach — summed value and slope at
// the target, and the identical event sequence afterwards.
func TestWalkerSkipToMatchesReset(t *testing.T) {
	rnd := rand.New(rand.NewSource(515))
	for iter := 0; iter < 200; iter++ {
		s := randomSet(rnd, 1+rnd.Intn(5), 25)
		if err := s.Validate(); err != nil {
			continue
		}
		for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
			// Advance a walker a few events before skipping, so the jump
			// starts from a mid-walk state (mixed per-task positions).
			jumped := newHIWalker(s, kind)
			for k := 0; k < rnd.Intn(4); k++ {
				jumped.Next()
			}
			target := jumped.Pos() + 1 + task.Time(rnd.Intn(500))
			jumped.SkipTo(target)

			if v := dbf.SetValue(s, kind, target); jumped.Value() != v {
				t.Fatalf("kind %d target %d: SkipTo value %d, direct %d:\n%s",
					kind, target, jumped.Value(), v, s.Table())
			}
			if m := dbf.SetRightSlope(s, kind, target); jumped.Slope() != m {
				t.Fatalf("kind %d target %d: SkipTo slope %d, direct %d", kind, target, jumped.Slope(), m)
			}

			// The continuation must be indistinguishable from a fresh
			// walker fast-forwarded event by event past the target.
			stepped := newHIWalker(s, kind)
			for {
				next, ok := stepped.PeekNext()
				if !ok || next > target {
					break
				}
				stepped.Next()
			}
			for k := 0; k < 20; k++ {
				okJ := jumped.Next()
				okS := stepped.Next()
				if okJ != okS {
					t.Fatalf("kind %d target %d step %d: ok %v vs %v", kind, target, k, okJ, okS)
				}
				if !okJ {
					break
				}
				if jumped.Pos() != stepped.Pos() || jumped.Value() != stepped.Value() ||
					jumped.Slope() != stepped.Slope() {
					t.Fatalf("kind %d target %d step %d: jumped (%d,%d,%d) vs stepped (%d,%d,%d)",
						kind, target, k,
						jumped.Pos(), jumped.Value(), jumped.Slope(),
						stepped.Pos(), stepped.Value(), stepped.Slope())
				}
			}
		}
	}
}
