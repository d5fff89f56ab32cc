// Package edfvd implements the classical EDF-VD (EDF with Virtual
// Deadlines) schedulability analysis of Baruah et al., "The preemptive
// uniprocessor scheduling of mixed-criticality implicit-deadline sporadic
// task systems" (ECRTS 2012) — reference [4] of the paper.
//
// EDF-VD is the baseline the paper's speedup approach is compared
// against: instead of temporarily overclocking the processor, EDF-VD
// terminates all LO-criticality tasks at the mode switch and relies on
// uniformly shortened ("virtual") deadlines for HI-criticality tasks in
// LO mode. Its analysis is utilization-based and restricted to
// implicit-deadline systems:
//
//   - if U_LO(LO) + U_HI(HI) ≤ 1 plain EDF of the real deadlines is
//     already correct in both modes (no virtual deadlines needed);
//   - otherwise, with x = U_HI(LO) / (1 − U_LO(LO)), EDF-VD is correct if
//     x·U_LO(LO) + U_HI(HI) ≤ 1.
//
// The celebrated corollary is a speedup factor of 4/3: any dual-
// criticality implicit-deadline system feasible on a unit-speed processor
// is EDF-VD-schedulable on a processor of speed 4/3; equivalently, the
// test above accepts whenever max(U_LO(LO)+U_HI(LO), U_LO(LO)+U_HI(HI))
// ≤ 3/4. That corollary is exercised by this package's tests.
package edfvd

import (
	"fmt"
	"math/big"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Result reports the EDF-VD analysis outcome.
type Result struct {
	// Schedulable reports whether EDF-VD guarantees all deadlines
	// (HI tasks always; LO tasks while the system stays in LO mode).
	Schedulable bool
	// PlainEDF reports that no deadline shortening is needed
	// (U_LO(LO) + U_HI(HI) ≤ 1); X is 1 in that case.
	PlainEDF bool
	// X is the uniform virtual-deadline scaling factor for HI tasks in
	// LO mode. Only meaningful when Schedulable.
	X rat.Rat
	// ULoLo, UHiLo, UHiHi are the three utilizations the test is built
	// from: U_LO(LO), U_HI(LO), U_HI(HI).
	ULoLo, UHiLo, UHiHi rat.Rat
}

// Analyze runs the EDF-VD schedulability test on an implicit-deadline
// dual-criticality set: every task must have D(LO) = T(LO) semantics in
// its own mode — concretely, HI tasks with D(HI) = T and LO tasks with
// D(LO) = T(LO). (HI tasks' D(LO) fields are ignored; EDF-VD derives its
// own virtual deadlines.)
func Analyze(s task.Set) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	for i := range s {
		switch s[i].Crit {
		case task.HI:
			if s[i].Deadline[task.HI] != s[i].Period[task.HI] {
				return Result{}, fmt.Errorf("edfvd: task %s not implicit-deadline (D(HI) %d != T %d)",
					s[i].Name, s[i].Deadline[task.HI], s[i].Period[task.HI])
			}
		case task.LO:
			if s[i].Deadline[task.LO] != s[i].Period[task.LO] {
				return Result{}, fmt.Errorf("edfvd: task %s not implicit-deadline (D(LO) %d != T %d)",
					s[i].Name, s[i].Deadline[task.LO], s[i].Period[task.LO])
			}
		}
	}

	// The test arithmetic runs in big.Rat: utilization sums of large
	// sets overflow fixed-width rationals.
	isLO := func(t *task.Task) bool { return t.Crit == task.LO }
	isHI := func(t *task.Task) bool { return t.Crit == task.HI }
	uLoLo, uHiLo, uHiHi := s.UtilSum(task.LO, isLO), s.UtilSum(task.LO, isHI), s.UtilSum(task.HI, isHI)
	r := Result{
		ULoLo: rat.FromBig(uLoLo, true),
		UHiLo: rat.FromBig(uHiLo, true),
		UHiHi: rat.FromBig(uHiHi, true),
	}

	one := big.NewRat(1, 1)
	if new(big.Rat).Add(uLoLo, uHiHi).Cmp(one) <= 0 {
		r.Schedulable = true
		r.PlainEDF = true
		r.X = rat.One
		return r, nil
	}
	denom := new(big.Rat).Sub(one, uLoLo)
	if denom.Sign() <= 0 {
		return r, nil // LO tasks alone saturate the processor
	}
	x := new(big.Rat).Quo(uHiLo, denom)
	if x.Cmp(one) >= 0 || x.Sign() <= 0 {
		return r, nil
	}
	cond := new(big.Rat).Mul(x, uLoLo)
	cond.Add(cond, uHiHi)
	if cond.Cmp(one) <= 0 {
		r.Schedulable = true
		// Rounding x up is conservative on both sides: LO-mode virtual
		// deadlines only lengthen, and the HI-mode condition was just
		// verified with the exact x.
		r.X = rat.FromBig(x, true)
	}
	return r, nil
}

// Transform materializes the EDF-VD runtime configuration as a task.Set:
// HI tasks get virtual deadlines D(LO) = max(C(LO), floor(X·T)) and LO
// tasks are terminated in HI mode, so the configuration can be fed to the
// exact demand-based analyses (package core) or to the simulator.
func Transform(s task.Set, res Result) (task.Set, error) {
	if !res.Schedulable {
		return nil, fmt.Errorf("edfvd: set not EDF-VD schedulable")
	}
	out := s.TerminateLO()
	if res.PlainEDF {
		// Even with plain EDF the model requires D(LO) < D(HI) for HI
		// tasks (eq. (1)); shave one tick. This marginally tightens the
		// LO-mode deadlines relative to the utilization argument, so a
		// set right on the U = 1 boundary may fail the exact demand
		// test — an artifact of the integer model, not of EDF-VD.
		for i := range out {
			if out[i].Crit == task.HI {
				d := out[i].Deadline[task.HI] - 1
				if d < out[i].WCET[task.LO] {
					d = out[i].WCET[task.LO]
				}
				out[i].Deadline[task.LO] = d
			}
		}
		return out, nil
	}
	return out.ShortenHIDeadlines(res.X)
}
