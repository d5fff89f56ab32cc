package core

import (
	"fmt"
	"strings"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Report bundles every analysis of the paper for one concrete
// configuration — the one-stop answer to "is this system safe, how fast
// must it turbo, and how quickly is it back to normal?".
type Report struct {
	// Set is the analyzed configuration (after any transforms the
	// caller applied).
	Set task.Set
	// Speed is the HI-mode speed factor the resetting-time entries are
	// computed for.
	Speed rat.Rat

	// SchedulableLO is the exact LO-mode processor-demand verdict.
	SchedulableLO bool
	// Speedup is the Theorem-2 result (exact s_min or safe bound).
	Speedup SpeedupResult
	// SchedulableHI reports Speed ≥ s_min.
	SchedulableHI bool
	// Reset is the Corollary-5 result at Speed.
	Reset ResetResult
	// ClosedSpeedup and ClosedReset are the Lemma-6/7 bounds.
	ClosedSpeedup, ClosedReset rat.Rat
	// UtilLO and UtilHI are the per-mode utilizations.
	UtilLO, UtilHI rat.Rat
}

// Analyze runs the complete analysis suite on the set at the given
// HI-mode speed.
func Analyze(s task.Set, speed rat.Rat) (Report, error) {
	return AnalyzeOpts(s, speed, Options{})
}

// AnalyzeOpts is Analyze with explicit walk options — Scratch reuse for
// tight loops and event caps. A Scratch never changes a result, so the
// report is byte-identical with or without one. It runs Session's report
// pipeline over a one-shot dbf.SetState with the cold Theorem-2 walk, so
// every exact sum is folded once per call.
func AnalyzeOpts(s task.Set, speed rat.Rat, o Options) (Report, error) {
	st, err := dbf.NewSetState(s)
	if err != nil {
		return Report{}, err
	}
	if err := validateSpeed(speed); err != nil {
		return Report{}, err
	}
	// The state is discarded, so the report keeps its private copy of
	// the set.
	return analyzeState(st, speed, o, func() (SpeedupResult, error) {
		return minSpeedupState(st, o)
	})
}

// analyzeState is the one report pipeline, behind AnalyzeOpts and
// Session: the utilizations, the LO-mode verdict and the closed forms
// come from the state's exact aggregates, the Corollary-5 walk runs
// with o, and speedup runs the Theorem-2 walk (cold for Analyze,
// warm-started or over a recorded curve for a Session). The report's Set
// is the state's live view of its task set. speed must be valid.
func analyzeState(st *dbf.SetState, speed rat.Rat, o Options, speedup func() (SpeedupResult, error)) (Report, error) {
	r := Report{
		Set:           st.Tasks(),
		Speed:         speed,
		UtilLO:        st.Util(task.LO),
		UtilHI:        st.Util(task.HI),
		SchedulableLO: schedulableLOState(st),
	}
	var err error
	if r.Speedup, err = speedup(); err != nil {
		return Report{}, err
	}
	r.SchedulableHI = speed.Cmp(r.Speedup.Speedup) >= 0
	if r.Reset, err = resetTimeState(st, speed, o); err != nil {
		return Report{}, err
	}
	r.ClosedSpeedup = closedFormSpeedup(st.SigmaSum())
	r.ClosedReset = closedFormReset(st.TotalCHI(), speed, r.ClosedSpeedup)
	return r, nil
}

// Safe reports whether the configuration is safe end to end at the
// report's speed: schedulable in LO mode and, should any overrun occur,
// schedulable in HI mode under the temporary speedup.
func (r Report) Safe() bool { return r.SchedulableLO && r.SchedulableHI }

// Render emits the report as fixed-width text.
func (r Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Set.Table())
	fmt.Fprintf(&b, "U(LO) = %.4f   U(HI) = %.4f\n", r.UtilLO.Float64(), r.UtilHI.Float64())
	fmt.Fprintf(&b, "LO-mode EDF schedulable:  %v\n", r.SchedulableLO)
	exact := ""
	if !r.Speedup.Exact {
		exact = fmt.Sprintf(" (safe bound; ≥ %v)", r.Speedup.LowerBound)
	}
	fmt.Fprintf(&b, "minimum HI-mode speedup:  s_min = %v (%.4f)%s, witness Δ = %d\n",
		r.Speedup.Speedup, r.Speedup.Speedup.Float64(), exact, r.Speedup.WitnessDelta)
	fmt.Fprintf(&b, "  Lemma-6 closed form:    %v\n", r.ClosedSpeedup)
	fmt.Fprintf(&b, "HI-mode schedulable at s = %v: %v\n", r.Speed, r.SchedulableHI)
	fmt.Fprintf(&b, "service resetting time:   Δ_R = %v ticks\n", r.Reset.Reset)
	fmt.Fprintf(&b, "  Lemma-7 closed form:    %v ticks\n", r.ClosedReset)
	fmt.Fprintf(&b, "SAFE (LO + HI under temporary speedup): %v\n", r.Safe())
	return b.String()
}
