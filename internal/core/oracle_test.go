package core

import (
	"fmt"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// The test oracle: the plainest event walks of Theorem 2, Corollary 5
// and the Corollary-5 inverse, in the form of the demand-based analyses
// they come from. Each steps from event to event with dbf.SetNextEvent
// and evaluates the whole set at every event through the scalar closed
// forms of package dbf (SetHIMode, SetADB, SetRightSlope) — no walker
// heap, no columnar plan, no skips. The production walks (walker.go,
// speedup.go, reset.go, design.go, delta.go) must agree with these on
// every payload field of an exact result and may never examine more
// events; the differential tests and FuzzWalkEquivalence/FuzzPlanEquivalence
// check both.

// oracleMinSpeedup is eq. (8) by direct re-evaluation of the full set at
// each event, with the production walk's two stopping rules and event
// budget (so Events counts the same events the plain walk examines).
func oracleMinSpeedup(s task.Set, o Options) (SpeedupResult, error) {
	if err := s.Validate(); err != nil {
		return SpeedupResult{}, err
	}
	uLo, uHi := s.UtilBounds(task.HI)
	totalC := sumActiveCHI(s)
	if v := dbf.SetHIMode(s, 0); v > 0 {
		return SpeedupResult{Speedup: rat.PosInf, LowerBound: rat.PosInf, Exact: true}, nil
	}
	hyper, hyperOK := hiHyperperiod(s)
	best := rat.Zero
	var witness task.Time
	pos := task.Time(0)
	events := 0
	for ; events < o.maxEvents(); events++ {
		next, ok := dbf.SetNextEvent(s, dbf.KindDBF, pos)
		if !ok {
			return SpeedupResult{Speedup: rat.Zero, LowerBound: rat.Zero, Exact: true, Events: events}, nil
		}
		pos = next
		v := dbf.SetHIMode(s, pos)
		ratio := rat.New(int64(v), int64(pos))
		if ratio.Cmp(best) > 0 {
			best = ratio
			witness = pos
		}
		if best.Cmp(uHi.Add(rat.New(int64(totalC), int64(pos)))) >= 0 {
			return SpeedupResult{Speedup: best, LowerBound: best, Exact: true, WitnessDelta: witness, Events: events + 1}, nil
		}
		if hyperOK && pos >= hyper {
			if best.Cmp(uHi) >= 0 {
				return SpeedupResult{Speedup: best, LowerBound: best, Exact: true, WitnessDelta: witness, Events: events + 1}, nil
			}
			if uLo.Eq(uHi) {
				return SpeedupResult{Speedup: uHi, LowerBound: uHi, Exact: true, Events: events + 1}, nil
			}
			return SpeedupResult{Speedup: uHi, LowerBound: rat.Max(best, uLo), Exact: false, Events: events + 1}, nil
		}
	}
	envelope := uHi.Add(rat.New(int64(totalC), int64(pos)))
	return SpeedupResult{
		Speedup: rat.Max(best, envelope), LowerBound: rat.Max(best, uLo),
		Exact: false, WitnessDelta: witness, Events: events,
	}, nil
}

// oracleResetTime is eq. (12): walk the ADB segments from Δ = 0 and
// return the first left endpoint on or below the supply line, or the
// first segment's crossing with it.
func oracleResetTime(s task.Set, speed rat.Rat, o Options) (ResetResult, error) {
	if err := s.Validate(); err != nil {
		return ResetResult{}, err
	}
	if err := validateSpeed(speed); err != nil {
		return ResetResult{}, err
	}
	_, uHI := s.UtilBounds(task.HI)
	if speed.Cmp(uHI) <= 0 {
		return ResetResult{Reset: rat.PosInf}, nil
	}
	budget := o.MaxEvents
	if budget <= 0 {
		budget = 50_000_000
	}
	pos := task.Time(0)
	for events := 0; ; events++ {
		if events > budget {
			return ResetResult{}, fmt.Errorf("oracle: ResetTime walk exceeded %d events", budget)
		}
		v := dbf.SetADB(s, pos)
		if v == 0 || (pos > 0 && speed.CmpRatio(int64(v), int64(pos)) >= 0) {
			return ResetResult{Reset: rat.FromInt64(int64(pos)), Events: events}, nil
		}
		next, ok := dbf.SetNextEvent(s, dbf.KindADB, pos)
		if !ok {
			return ResetResult{Reset: rat.FromInt64(int64(v)).Div(speed), Events: events}, nil
		}
		m := dbf.SetRightSlope(s, dbf.KindADB, pos)
		if leftLimit := v + m*(next-pos); speed.CmpRatio(int64(m), 1) > 0 && speed.CmpRatio(int64(leftLimit), int64(next)) > 0 {
			mr := rat.FromInt64(int64(m))
			cross := rat.FromInt64(int64(v)).Sub(mr.MulInt(int64(pos))).Div(speed.Sub(mr))
			return ResetResult{Reset: cross, Events: events}, nil
		}
		pos = next
	}
}

// oracleMinSpeedForReset is the infimum of ΣADB_HI(Δ)/Δ over (0, budget]:
// at every event both the left limit just before it (attained only when
// the curve is continuous there) and the event point itself, plus the
// budget.
func oracleMinSpeedForReset(s task.Set, budget task.Time, o Options) (SpeedForResetResult, error) {
	if err := s.Validate(); err != nil {
		return SpeedForResetResult{}, err
	}
	if budget <= 0 {
		return SpeedForResetResult{}, fmt.Errorf("oracle: reset budget %d must be positive", budget)
	}
	res := SpeedForResetResult{Speed: rat.PosInf}
	consider := func(num, at task.Time, attained bool) {
		switch c := res.Speed.Cmp(rat.New(int64(num), int64(at))); {
		case c > 0:
			res.Speed, res.Attained, res.WitnessDelta = rat.New(int64(num), int64(at)), attained, at
		case c == 0:
			res.Attained = res.Attained || attained
		}
	}
	pos := task.Time(0)
	for {
		next, ok := dbf.SetNextEvent(s, dbf.KindADB, pos)
		if !ok || next > budget {
			break
		}
		consider(dbf.SetADB(s, pos)+dbf.SetRightSlope(s, dbf.KindADB, pos)*(next-pos), next, false)
		pos = next
		res.Events++
		if res.Events > o.maxEvents() {
			return SpeedForResetResult{}, fmt.Errorf("oracle: speed-for-reset walk exceeded %d events", o.maxEvents())
		}
		consider(dbf.SetADB(s, pos), pos, true)
	}
	consider(dbf.SetADB(s, pos)+dbf.SetRightSlope(s, dbf.KindADB, pos)*(budget-pos), budget, true)
	return res, nil
}

// The check helpers run one production analysis and its oracle and fail
// t on any disagreement: the same error outcome; for an exact oracle
// result, equality on every payload field; and never more production
// events than the oracle examined. Jumps has no oracle counterpart.

func checkMinSpeedup(t testing.TB, s task.Set, o Options) SpeedupResult {
	t.Helper()
	got, errG := MinSpeedupOpts(s, o)
	want, errW := oracleMinSpeedup(s, o)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("MinSpeedup error mismatch: %v vs oracle %v\n%s", errG, errW, s.Table())
	}
	if errG != nil {
		return want
	}
	if got.Events > want.Events {
		t.Fatalf("MinSpeedup examined %d events > oracle %d\n%s", got.Events, want.Events, s.Table())
	}
	if want.Exact && (!got.Speedup.Eq(want.Speedup) || !got.LowerBound.Eq(want.LowerBound) ||
		got.Exact != want.Exact || got.WitnessDelta != want.WitnessDelta) {
		t.Fatalf("MinSpeedup %+v != oracle %+v\n%s", got, want, s.Table())
	}
	return want
}

func checkResetTime(t testing.TB, s task.Set, speed rat.Rat, o Options) ResetResult {
	t.Helper()
	got, errG := ResetTimeOpts(s, speed, o)
	want, errW := oracleResetTime(s, speed, o)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("ResetTime(%v) error mismatch: %v vs oracle %v\n%s", speed, errG, errW, s.Table())
	}
	if errG != nil {
		return want
	}
	if got.Events > want.Events {
		t.Fatalf("ResetTime(%v) examined %d events > oracle %d\n%s", speed, got.Events, want.Events, s.Table())
	}
	if !got.Reset.Eq(want.Reset) {
		t.Fatalf("ResetTime(%v) Δ_R %v != oracle %v\n%s", speed, got.Reset, want.Reset, s.Table())
	}
	return want
}

func checkMinSpeedForReset(t testing.TB, s task.Set, budget task.Time, o Options) SpeedForResetResult {
	t.Helper()
	got, errG := MinSpeedForResetOpts(s, budget, o)
	want, errW := oracleMinSpeedForReset(s, budget, o)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("MinSpeedForReset(%d) error mismatch: %v vs oracle %v\n%s", budget, errG, errW, s.Table())
	}
	if errG != nil {
		return want
	}
	if got.Events > want.Events {
		t.Fatalf("MinSpeedForReset(%d) examined %d events > oracle %d\n%s", budget, got.Events, want.Events, s.Table())
	}
	if !got.Speed.Eq(want.Speed) || got.Attained != want.Attained || got.WitnessDelta != want.WitnessDelta {
		t.Fatalf("MinSpeedForReset(%d) %+v != oracle %+v\n%s", budget, got, want, s.Table())
	}
	return want
}
