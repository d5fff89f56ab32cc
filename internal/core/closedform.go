package core

import (
	"math/big"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TaskSigma returns the per-task supremum
//
//	σ_i = sup_{Δ > 0} DBF_HI(τ_i, Δ)/Δ,
//
// the smallest slope of a line through the origin dominating the task's
// HI-mode demand curve; see dbf.TaskSigma (where the closed form lives so
// dbf.SetState can maintain the Lemma-6 sum Σσ_i incrementally).
func TaskSigma(t *task.Task) rat.Rat { return dbf.TaskSigma(t) }

// ClosedFormSpeedup is the Lemma-6 closed-form upper bound on the minimum
// HI-mode speedup: the sum Σ_i σ_i of the per-task demand-curve slopes.
// Each σ_i is the exact per-task supremum, so the bound is tight for
// singleton sets; summing ignores that the per-task suprema are attained
// at different interval lengths, which is exactly the looseness Lemma 6
// trades for a closed form. With the uniform implicit-deadline scalings of
// eqs. (13)–(14) (gap_HI = (1−x)·T, gap_LO = (y−1)·T) the bound expands to
// the paper's eq. (15) shape
//
//	Σ_HI max{U_i(HI), (U_i(HI)−U_i(LO))/(1−x), U_i(HI)/((1−x)+U_i(LO))}
//	+ Σ_LO U_i(LO)/((y−1)+U_i(LO))
//
// and is monotone increasing in x and decreasing in y, matching the
// paper's Fig. 4a.
func ClosedFormSpeedup(s task.Set) rat.Rat {
	return closedFormSpeedup(dbf.SigmaSum(s))
}

// closedFormSpeedup finishes the Lemma-6 bound from the exact Σσ_i over
// the finite σ_i and the count of infinite ones (dbf.SigmaSum, or a
// SetState's maintained copy of it).
func closedFormSpeedup(sum *big.Rat, inf int) rat.Rat {
	if inf > 0 {
		return rat.PosInf
	}
	// Rounding up (if needed at all) keeps the Lemma-6 upper bound sound.
	return rat.FromBig(sum, true)
}

// ClosedFormReset is the Lemma-7 closed-form upper bound on the service
// resetting time,
//
//	Δ_R ≤ Σ_i C_i(HI) / (s − s_min),                          (eq. (16))
//
// with s_min the Lemma-6 closed form. It is +Inf when s ≤ s_min. The bound
// is sound because ADB_HI(τ_i, Δ) ≤ DBF_HI(τ_i, Δ) + C_i(HI) pointwise
// (the arrived-demand window never opens earlier than the deadline-based
// one, and the job term counts exactly one extra C(HI)), so the arrived
// demand stays below s·Δ from Δ = ΣC(HI)/(s − Σσ) on. Terminated tasks
// still contribute C_i(HI) to the numerator: their carry-over job must
// drain before the processor idles.
func ClosedFormReset(s task.Set, speed rat.Rat) rat.Rat {
	return closedFormReset(s.TotalCHI(), speed, ClosedFormSpeedup(s))
}

// closedFormReset finishes the Lemma-7 bound from Σ_i C_i(HI) and an
// already-computed Lemma-6 closed-form speedup.
func closedFormReset(totalCHI task.Time, speed, smin rat.Rat) rat.Rat {
	if smin.IsInf() || speed.Cmp(smin) <= 0 {
		return rat.PosInf
	}
	return rat.FromInt64(int64(totalCHI)).Div(speed.Sub(smin))
}
