package dbf

import (
	"math/big"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// hyperHorizon caps the hyperperiod used as a walking horizon; it matches
// core's skipHorizon so pruned and unpruned walks inhabit the same
// position range.
const hyperHorizon = task.Time(1) << 40

// SumActiveCHI sums C_i(HI) over tasks that are not terminated
// (terminated tasks contribute zero HI-mode demand, so they do not enter
// the DBF envelope bound ΣDBF_HI(Δ) ≤ U_HI·Δ + ΣC(HI)).
func SumActiveCHI(s task.Set) task.Time {
	var total task.Time
	for i := range s {
		if !s[i].Terminated() {
			total += s[i].WCET[task.HI]
		}
	}
	return total
}

// HIHyperperiod returns the least common multiple of the HI-mode periods
// of the non-terminated tasks, with ok=false on overflow or when it
// exceeds the practical walking horizon. By the exact periodicity
// DBF_HI(Δ+T) = DBF_HI(Δ)+C(HI), one hyperperiod bounds the
// Theorem-2 walk.
func HIHyperperiod(s task.Set) (task.Time, bool) {
	l := task.Time(1)
	for i := range s {
		if s[i].Terminated() {
			continue
		}
		p := s[i].Period[task.HI]
		g := gcd(l, p)
		l = l / g
		if l > hyperHorizon/p {
			return 0, false
		}
		l *= p
	}
	return l, true
}

func gcd(a, b task.Time) task.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SetState is an incrementally maintained demand structure over a task
// set: the set itself plus every O(n) aggregate the HI-mode event walks
// and the LO-mode schedulability test derive from it. Applying a
// task.Edit updates the additive aggregates from the edit's before/after
// values and invalidates only the caches the touched parameter classes
// feed, so a single-parameter edit costs O(changed tasks) bookkeeping
// instead of an O(n) rebuild — the delta path behind core's Session and
// the rewired design searches.
//
// Every cached value is defined as "exactly what the cold recomputation
// over Tasks() would produce": the lazy accessors call the same cold
// folds (task.Set.UtilSum/UtilBounds, HIHyperperiod, SumActiveCHI,
// LODemandSum, SigmaSum), and the incrementally maintained ones use
// exact rational/integer arithmetic whose result is independent of the
// update order, so delta and cold analyses are bit-identical (pinned by
// the differential and fuzz tests in internal/core).
//
// A SetState is not safe for concurrent use; callers (the server's
// session layer) serialize access. All mutation goes through Apply —
// mutating Tasks() directly would desynchronize the caches (deltacheck
// enforces this statically).
type SetState struct {
	set task.Set // owned copy; exposed read-only via Tasks

	// Exact integer aggregates, updated in O(1) per edit.
	sumActiveCHI task.Time
	totalCHI     task.Time

	// Lazily (re)computed aggregates with validity flags. Invalidation
	// is per parameter class: a D(LO)-only edit — the TuneDeadlines hot
	// path — leaves every HI-mode cache valid, and a C(HI) edit leaves
	// the hyperperiod and all LO-mode caches valid.
	utilValid   [2]bool
	utilVal     [2]rat.Rat
	boundsValid [2]bool
	boundsLo    [2]rat.Rat
	boundsHi    [2]rat.Rat

	// Exact per-mode utilization sums Σ C(m)/T(m) over tasks with bounded
	// T(m), maintained incrementally once folded (nil until first
	// requested). T(LO) is always bounded, so utilSum[LO] is the LO-mode
	// test's exact Σ C(LO)/T(LO). Util and UtilBounds are directed
	// roundings of these exact values — the same roundings the cold paths
	// apply to the same exact sum, so the cached results stay
	// bit-identical while a C(HI) edit costs one big.Rat add/sub instead
	// of an O(n) refold.
	utilSum [2]*big.Rat

	hyperValid bool
	hyper      task.Time
	hyperOK    bool

	fp string // cached Fingerprint; "" = invalid

	// Exact QPA horizon numerator Σ (T(LO)−D(LO))·C(LO)/T(LO),
	// maintained incrementally (big.Rat addition is exactly invertible,
	// unlike the int64 fast path of UtilBounds); nil until first
	// requested.
	loDemandSum *big.Rat

	// Exact Lemma-6 sum Σ_{finite σ_i} σ_i (TaskSigma), maintained like
	// loDemandSum, plus the count of tasks whose σ_i is infinite (which
	// big.Rat cannot hold); nil until first requested.
	sigmaSum *big.Rat
	sigmaInf int

	// Cached LO-mode schedulability verdict (stored by core's state-aware
	// test), valid until any LO-mode parameter changes.
	loSchedValid bool
	loSched      bool
}

// NewSetState validates s and builds a state over a private copy of it.
func NewSetState(s task.Set) (*SetState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &SetState{set: s.Clone()}
	st.sumActiveCHI = SumActiveCHI(st.set)
	st.totalCHI = st.set.TotalCHI()
	return st, nil
}

// Tasks returns the state's task set. It is a live view: callers must
// treat it as read-only and apply changes through Apply only.
func (st *SetState) Tasks() task.Set { return st.set }

// Apply applies one edit and updates the maintained aggregates in O(1).
// A failing edit leaves the state unchanged.
func (st *SetState) Apply(e task.Edit) error {
	_, err := st.ApplyTouched(e)
	return err
}

// ApplyTouched is Apply returning the edit's task.Touched impact record,
// for callers (core's Session) that maintain derived structures of their
// own — e.g. classifying value-only C(HI) edits that keep a recorded
// event curve's positions intact.
func (st *SetState) ApplyTouched(e task.Edit) (task.Touched, error) {
	out, tc, err := e.ApplyTo(st.set)
	if err != nil {
		return task.Touched{}, err
	}
	st.set = out
	st.noteChange(tc)
	return tc, nil
}

// noteChange folds one edit's impact into the aggregates: additive
// integer sums are updated exactly from the before/after task values,
// everything else is invalidated per parameter class and lazily
// recomputed by the same cold functions the non-incremental path uses.
func (st *SetState) noteChange(tc task.Touched) {
	if !tc.Any() {
		return // value-preserving edit: every cache still describes the set
	}
	st.fp = ""

	hiTouched := tc.CHI || tc.THI || tc.Added || tc.Removed
	if hiTouched {
		// ΣC(HI) sums move by the difference of the task's contributions.
		// A termination toggle always touches T(HI) (Validate requires
		// D(HI) and T(HI) to turn unbounded together), so the guard
		// covers every active-contribution change.
		if !tc.Added && !tc.Old.Terminated() {
			st.sumActiveCHI -= tc.Old.WCET[task.HI]
		}
		if !tc.Removed && !tc.New.Terminated() {
			st.sumActiveCHI += tc.New.WCET[task.HI]
		}
		if !tc.Added {
			st.totalCHI -= tc.Old.WCET[task.HI]
		}
		if !tc.Removed {
			st.totalCHI += tc.New.WCET[task.HI]
		}
		st.utilValid[task.HI] = false
		st.boundsValid[task.HI] = false
		shift(st.utilSum[task.HI], tc, func(t task.Task) (num, den, mul int64, ok bool) { return t.UtilLeaf(task.HI) })
	}

	if tc.THI || tc.Removed {
		st.hyperValid = false
		st.hyper, st.hyperOK = 0, false
	} else if tc.Added && st.hyperValid && st.hyperOK && !tc.New.Terminated() {
		// Appending a task extends HIHyperperiod's fold by exactly one
		// step, so the incremental lcm (with the same overflow check)
		// reproduces the full recomputation.
		p := tc.New.Period[task.HI]
		g := gcd(st.hyper, p)
		l := st.hyper / g
		if l > hyperHorizon/p {
			st.hyper, st.hyperOK = 0, false
		} else {
			st.hyper = l * p
		}
	}

	loTouched := tc.CLO || tc.TLO || tc.Added || tc.Removed
	if loTouched {
		st.utilValid[task.LO] = false
		st.boundsValid[task.LO] = false
		shift(st.utilSum[task.LO], tc, func(t task.Task) (num, den, mul int64, ok bool) { return t.UtilLeaf(task.LO) })
	}
	if st.sigmaSum != nil && (hiTouched || tc.CLO || tc.DLO || tc.DHI) {
		// σ_i reads every parameter except T(LO); move the task's
		// before and after contributions like the other exact sums.
		shift(st.sigmaSum, tc, sigmaLeaf)
		if !tc.Added && TaskSigma(&tc.Old).IsInf() {
			st.sigmaInf--
		}
		if !tc.Removed && TaskSigma(&tc.New).IsInf() {
			st.sigmaInf++
		}
	}

	if loTouched || tc.DLO {
		shift(st.loDemandSum, tc, loDemandLeaf)
		st.loSchedValid = false
	}
}

// shift moves one edit's before/after contributions through a maintained
// exact sum, if it has been built: one big.Rat sub and add per edit.
// leaf gives one task's term in rat.TreeSum's leaf form — the same
// function the sum's cold fold uses — or ok = false for a task that
// contributes nothing the sum can hold.
//
// leaf takes the task by value: a pointer into tc would make every
// edit's Touched escape to the heap through the unknown callee.
func shift(sum *big.Rat, tc task.Touched, leaf func(t task.Task) (num, den, mul int64, ok bool)) {
	if sum == nil {
		return
	}
	var z, w big.Rat
	term := func(t task.Task) *big.Rat {
		num, den, mul, ok := leaf(t)
		if !ok {
			return nil
		}
		z.SetFrac64(num, den)
		if mul != 1 {
			z.Mul(&z, w.SetInt64(mul))
		}
		return &z
	}
	if !tc.Added {
		if v := term(tc.Old); v != nil {
			sum.Sub(sum, v)
		}
	}
	if !tc.Removed {
		if v := term(tc.New); v != nil {
			sum.Add(sum, v)
		}
	}
}

// UtilSum returns the exact mode-m utilization sum Tasks().UtilSum(m,
// nil), folded on first use and thereafter maintained per edit (exact
// rational addition is order-independent and exactly invertible, so the
// sum always equals the cold fold over Tasks()). Callers must not mutate
// the result.
func (st *SetState) UtilSum(m task.Crit) *big.Rat {
	if st.utilSum[m] == nil {
		st.utilSum[m] = st.set.UtilSum(m, nil)
	}
	return st.utilSum[m]
}

// loDemandLeaf is one task's (T−D)·C/T contribution to the QPA horizon
// numerator, over its LO-mode parameters.
func loDemandLeaf(t task.Task) (num, den, mul int64, ok bool) {
	ti := t.Period[task.LO]
	return int64(t.WCET[task.LO]), int64(ti), int64(ti - t.Deadline[task.LO]), true
}

// LODemandSum returns the exact QPA horizon numerator
// Σ_i (T_i−D_i)·C_i/T_i over the LO-mode parameters: the rat.TreeSum of
// loDemandLeaf, which SetState maintains incrementally.
func LODemandSum(s task.Set) *big.Rat {
	return rat.TreeSum(len(s), func(i int) (num, den, mul int64, ok bool) { return loDemandLeaf(s[i]) })
}

// sigmaLeaf is one task's σ_i (TaskSigma), or ok = false when σ_i is
// infinite.
func sigmaLeaf(t task.Task) (num, den, mul int64, ok bool) {
	sigma := TaskSigma(&t)
	if sigma.IsInf() {
		return 0, 0, 0, false
	}
	return sigma.Num(), sigma.Den(), 1, true
}

// SigmaSum returns the exact Lemma-6 sum Σσ_i over the tasks with finite
// σ_i, plus the count of tasks whose σ_i is infinite (which big.Rat
// cannot hold): the rat.TreeSum of sigmaLeaf, which SetState maintains
// incrementally.
func SigmaSum(s task.Set) (sum *big.Rat, inf int) {
	sum = rat.TreeSum(len(s), func(i int) (num, den, mul int64, ok bool) {
		num, den, mul, ok = sigmaLeaf(s[i])
		if !ok {
			inf++
		}
		return num, den, mul, ok
	})
	return sum, inf
}

// Util returns Tasks().Util(m), cached and — once the exact sum is
// folded — revalidated in O(1) after an edit. Bit-identical to the cold
// value: both are rat.FromBig of the same exact rational, rounded up.
func (st *SetState) Util(m task.Crit) rat.Rat {
	if !st.utilValid[m] {
		st.utilVal[m] = rat.FromBig(st.UtilSum(m), true)
		st.utilValid[m] = true
	}
	return st.utilVal[m]
}

// UtilBounds returns Tasks().UtilBounds(m), cached. Revalidation after an
// edit is O(1) once the exact sum has been built (by a Util call — the
// Session path always makes one); before that it stays on the cold
// alloc-free fast path, so state-per-candidate users like MinimalY pay
// nothing for the machinery. Both derivations are bit-identical: the cold
// int64 fast path and its big.Rat fallback both produce the directed
// roundings of the exact utilization (see task.Set.UtilBounds), which is
// exactly what rat.FromBig of the maintained sum yields.
func (st *SetState) UtilBounds(m task.Crit) (lo, hi rat.Rat) {
	if !st.boundsValid[m] {
		if sum := st.utilSum[m]; sum != nil {
			st.boundsLo[m] = rat.FromBig(sum, false)
			st.boundsHi[m] = rat.FromBig(sum, true)
		} else {
			st.boundsLo[m], st.boundsHi[m] = st.set.UtilBounds(m)
		}
		st.boundsValid[m] = true
	}
	return st.boundsLo[m], st.boundsHi[m]
}

// SumActiveCHI returns the maintained ΣC(HI) over non-terminated tasks.
func (st *SetState) SumActiveCHI() task.Time { return st.sumActiveCHI }

// TotalCHI returns the maintained Σ_i C_i(HI) (Lemma 7's numerator).
func (st *SetState) TotalCHI() task.Time { return st.totalCHI }

// HIHyperperiod returns HIHyperperiod(Tasks()), cached and — for
// appends — incrementally extended.
func (st *SetState) HIHyperperiod() (task.Time, bool) {
	if !st.hyperValid {
		st.hyper, st.hyperOK = HIHyperperiod(st.set)
		st.hyperValid = true
	}
	return st.hyper, st.hyperOK
}

// Fingerprint returns Tasks().Fingerprint(), cached.
func (st *SetState) Fingerprint() string {
	if st.fp == "" {
		st.fp = st.set.Fingerprint()
	}
	return st.fp
}

// LODemandSum returns LODemandSum(Tasks()), folded on first use and
// thereafter maintained per edit like UtilSum. Callers must not mutate
// the result.
func (st *SetState) LODemandSum() *big.Rat {
	if st.loDemandSum == nil {
		st.loDemandSum = LODemandSum(st.set)
	}
	return st.loDemandSum
}

// SigmaSum returns SigmaSum(Tasks()), folded on first use and thereafter
// maintained per edit like UtilSum (the closed-form speedup is +Inf
// whenever the infinite count is positive). Callers must not mutate the
// result.
func (st *SetState) SigmaSum() (*big.Rat, int) {
	if st.sigmaSum == nil {
		st.sigmaSum, st.sigmaInf = SigmaSum(st.set)
	}
	return st.sigmaSum, st.sigmaInf
}

// LOSchedCache returns the stored LO-mode schedulability verdict and
// whether it is still valid (no LO-mode parameter changed since
// StoreLOSched).
func (st *SetState) LOSchedCache() (verdict, ok bool) {
	return st.loSched, st.loSchedValid
}

// StoreLOSched records the LO-mode schedulability verdict for the
// current set.
func (st *SetState) StoreLOSched(v bool) {
	st.loSched = v
	st.loSchedValid = true
}
