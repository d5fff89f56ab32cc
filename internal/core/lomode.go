package core

import (
	"fmt"
	"math/big"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// SchedulableLO reports whether the task set is EDF-schedulable in LO mode
// at unit speed, i.e. whether Σ_i DBF_LO(τ_i, Δ) ≤ Δ for every Δ ≥ 0
// (the processor demand criterion over the LO-mode parameters, with HI
// tasks using their shortened virtual deadlines).
//
// The test is exact for total LO-mode utilization U < 1 using the standard
// pseudo-polynomial horizon max(max_i D_i(LO), Σ_i (T_i−D_i)·U_i/(1−U)).
// For U = 1 it is exact when all LO-mode deadlines are implicit (then the
// demand never exceeds U·Δ); any other U = 1 set is conservatively
// rejected. U > 1 is always unschedulable. A U < 1 set whose horizon
// exceeds the int64 time range (U within ~Σ(T−D)·U_i/2^63 of 1) is
// likewise conservatively rejected: QPA cannot start from such a horizon.
func SchedulableLO(s task.Set) (bool, error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	// The utilization sum and the horizon are computed in big.Rat: large
	// sets with coprime periods overflow fixed-width rationals.
	return schedulableLOWithSums(s, s.UtilSum(task.LO, nil), nil), nil
}

// schedulableLOWithSums is the shared decision body of SchedulableLO and
// schedulableLOState: the utilization trichotomy plus the QPA run, given
// the exact LO-utilization sum and (optionally) the precomputed QPA
// horizon numerator Σ(T−D)·C/T. Neither big.Rat is mutated. sum may be
// nil, in which case dbf.LODemandSum derives it from s.
func schedulableLOWithSums(s task.Set, u, sum *big.Rat) bool {
	one := big.NewRat(1, 1)
	switch u.Cmp(one) {
	case 1:
		return false
	case 0:
		for i := range s {
			if s[i].Deadline[task.LO] != s[i].Period[task.LO] {
				// Conservative: a U = 1 set with a constrained
				// deadline generally overloads some interval; an
				// exact decision would require walking a full
				// hyperperiod.
				return false
			}
		}
		return true
	}

	// Any Δ violating the PDC satisfies Δ < Σ(T_i−D_i)·U_i/(1−U); run
	// the QPA downward iteration (see qpa.go) over that horizon.
	if sum == nil {
		sum = dbf.LODemandSum(s)
	}
	limit, ok := loHorizonFrom(s, sum, u)
	return ok && qpaLO(s, limit)
}

// schedulableLOState is SchedulableLO over an incrementally maintained
// demand state: the verdict is cached until an LO-mode parameter
// changes, and a recomputation reuses the state's exact incremental
// utilization and horizon sums instead of resumming the set — the
// allocation source that dominated the old per-candidate cost in
// TuneDeadlines. Bit-identical to the cold test by SetState's contract
// (exact rational arithmetic is independent of the summation order).
func schedulableLOState(st *dbf.SetState) bool {
	if v, ok := st.LOSchedCache(); ok {
		return v
	}
	v := schedulableLOWithSums(st.Tasks(), st.UtilSum(task.LO), st.LODemandSum())
	st.StoreLOSched(v)
	return v
}

// MinimalX finds the smallest uniform overrun-preparation factor x
// (eq. (13)) such that the set with HI-criticality virtual deadlines
// D_i(LO) = max(C_i(LO), floor(x·D_i(HI))) remains EDF-schedulable in LO
// mode — the configuration the paper uses throughout the Fig. 6
// experiments ("x in all cases is set to the minimum to guarantee LO mode
// schedulability"). It returns the factor and the transformed set.
//
// Shrinking x shortens virtual deadlines, which only increases LO-mode
// demand, so feasibility is monotone in x and a binary search over the
// grid x = k/D_max (the coarsest grid on which every floor(x·D_i) value is
// realized) is exact.
func MinimalX(s task.Set) (rat.Rat, task.Set, error) {
	if err := s.Validate(); err != nil {
		return rat.Rat{}, nil, err
	}
	if len(s.ByCrit(task.HI)) == 0 {
		// No HI task: nothing to shorten; x is irrelevant.
		ok, err := SchedulableLO(s)
		if err != nil {
			return rat.Rat{}, nil, err
		}
		if !ok {
			return rat.Rat{}, nil, fmt.Errorf("core: set is not LO-mode schedulable")
		}
		return rat.One, s.Clone(), nil
	}

	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI && s[i].Deadline[task.HI] > dMax {
			dMax = s[i].Deadline[task.HI]
		}
	}

	feasible := func(k int64) (bool, task.Set) {
		x := rat.New(k, int64(dMax))
		out, err := s.ShortenHIDeadlines(x)
		if err != nil {
			return false, nil
		}
		ok, err := SchedulableLO(out)
		if err != nil {
			return false, nil
		}
		return ok, out
	}

	// The largest candidate (k = dMax−1, i.e. x just below 1) is the
	// easiest configuration; if even that fails the set is hopeless.
	hi := int64(dMax) - 1
	okHi, setHi := feasible(hi)
	if !okHi {
		return rat.Rat{}, nil, fmt.Errorf("core: no x in (0,1) makes the set LO-mode schedulable")
	}
	lo := int64(0) // k = 0 is x = 0, invalid by construction → infeasible sentinel
	bestSet := setHi
	bestK := hi
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ok, out := feasible(mid); ok {
			hi, bestK, bestSet = mid, mid, out
		} else {
			lo = mid
		}
	}
	return rat.New(bestK, int64(dMax)), bestSet, nil
}
