// Package task defines the dual-criticality sporadic task model of
// Huang et al., "Run and Be Safe: Mixed-Criticality Scheduling with
// Temporary Processor Speedup" (DATE 2015), Section II.
//
// A task τ_i is a sporadic task with per-mode parameters
// {T_i(χ), D_i(χ), C_i(χ)} for χ ∈ {LO, HI}, a criticality level
// χ_i ∈ {LO, HI}, and constrained deadlines (D ≤ T in every mode).
// HI-criticality tasks keep their period across modes, have a shortened
// ("virtual") deadline in LO mode to prepare for overrun (eq. (1)), and a
// more pessimistic WCET on HI criticality. LO-criticality tasks keep their
// WCET but may have their service degraded in HI mode via enlarged periods
// and deadlines (eq. (2)); termination is the special case
// T(HI) = D(HI) = ∞ (eq. (3)).
//
// All times are integer ticks. The tick is opaque to the analysis; the
// experiment drivers use 1 tick = 100 µs so that the paper's period range
// of 2 ms–2 s spans 20–20000 ticks.
package task

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"mcspeedup/internal/rat"
)

// Time is a duration or instant in integer ticks.
type Time int64

// Unbounded represents an infinite period or deadline, used for
// LO-criticality tasks that are terminated rather than degraded in HI mode
// (eq. (3) of the paper). Arithmetic on Unbounded is never meaningful; all
// consumers must test IsUnbounded first.
const Unbounded Time = math.MaxInt64

// IsUnbounded reports whether t stands for +∞.
func (t Time) IsUnbounded() bool { return t == Unbounded }

// MarshalJSON encodes Unbounded as the string "inf" and every other value
// as a plain integer.
func (t Time) MarshalJSON() ([]byte, error) {
	if t.IsUnbounded() {
		return []byte(`"inf"`), nil
	}
	return strconv.AppendInt(make([]byte, 0, 20), int64(t), 10), nil
}

// UnmarshalJSON accepts either a non-negative integer or the string
// "inf". Negative values, fractional values, and float specials (NaN,
// Infinity — invalid JSON to begin with) are rejected here rather than
// deferred to Validate, so that every decoded Time is well-defined for
// content addressing (Set.Fingerprint).
func (t *Time) UnmarshalJSON(b []byte) error {
	if v, ok := parseTicks(b); ok {
		*t = v
		return nil
	}
	s := strings.TrimSpace(string(b))
	if s == `"inf"` || s == `"Inf"` || s == `"+Inf"` {
		*t = Unbounded
		return nil
	}
	var v int64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("task: bad Time %s (want a non-negative integer or \"inf\"): %w", s, err)
	}
	if v < 0 {
		return fmt.Errorf("task: bad Time %s: negative durations are not allowed", s)
	}
	*t = Time(v)
	return nil
}

// parseTicks decodes the two forms a Time takes in the documents this
// package writes — a decimal integer without leading zeros of at most
// 18 digits (so it cannot overflow int64) and the string "inf" — without
// allocating: a set is six Times per task, and the general path costs a
// nested json.Unmarshal each. ok = false hands every other input, valid
// or not, to the general path, which owns the error messages.
func parseTicks(b []byte) (t Time, ok bool) {
	if string(b) == `"inf"` {
		return Unbounded, true
	}
	if len(b) == 0 || len(b) > 18 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		t = 10*t + Time(c-'0')
	}
	return t, true
}

// Crit is a criticality level. The same two-valued domain also identifies
// the system operating mode (the paper overloads LO/HI for both).
type Crit uint8

const (
	// LO is the low criticality level / normal operating mode.
	LO Crit = iota
	// HI is the high criticality level / critical operating mode.
	HI
)

// String implements fmt.Stringer.
func (c Crit) String() string {
	switch c {
	case LO:
		return "LO"
	case HI:
		return "HI"
	default:
		return fmt.Sprintf("Crit(%d)", uint8(c))
	}
}

// MarshalJSON encodes the level as "LO"/"HI".
func (c Crit) MarshalJSON() ([]byte, error) {
	switch c {
	case LO:
		return []byte(`"LO"`), nil
	case HI:
		return []byte(`"HI"`), nil
	}
	return json.Marshal(c.String())
}

// UnmarshalJSON accepts "LO"/"HI" (case-insensitive). The canonical
// spellings are matched on the raw bytes, without decoding a string.
func (c *Crit) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"LO"`:
		*c = LO
		return nil
	case `"HI"`:
		*c = HI
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch strings.ToUpper(s) {
	case "LO":
		*c = LO
	case "HI":
		*c = HI
	default:
		return fmt.Errorf("task: bad criticality %q", s)
	}
	return nil
}

// Task is one dual-criticality sporadic task. The per-mode arrays are
// indexed by Crit (Period[LO] is T_i(LO), etc.).
type Task struct {
	Name string `json:"name"`
	Crit Crit   `json:"crit"`
	// Period[χ] is the minimum inter-arrival time T_i(χ).
	Period [2]Time `json:"period"`
	// Deadline[χ] is the relative deadline D_i(χ). For HI-criticality
	// tasks Deadline[LO] is the artificially shortened "virtual"
	// deadline used while the system runs in LO mode (eq. (1)).
	Deadline [2]Time `json:"deadline"`
	// WCET[χ] is the worst-case execution time C_i(χ) at criticality
	// assurance level χ.
	WCET [2]Time `json:"wcet"`
}

// T returns the minimum inter-arrival time in mode m.
func (t *Task) T(m Crit) Time { return t.Period[m] }

// D returns the relative deadline in mode m.
func (t *Task) D(m Crit) Time { return t.Deadline[m] }

// C returns the WCET at assurance level m.
func (t *Task) C(m Crit) Time { return t.WCET[m] }

// Terminated reports whether the task receives no service in HI mode
// (eq. (3)): only meaningful for LO-criticality tasks.
func (t *Task) Terminated() bool {
	return t.Period[HI].IsUnbounded() && t.Deadline[HI].IsUnbounded()
}

// Util returns the utilization U_i(m) = C_i(m)/T_i(m) in mode m.
// A terminated task has zero HI-mode utilization.
func (t *Task) Util(m Crit) rat.Rat {
	if t.Period[m].IsUnbounded() {
		return rat.Zero
	}
	return rat.New(int64(t.WCET[m]), int64(t.Period[m]))
}

// UtilLeaf returns U_i(m) as a rat.TreeSum leaf, C_i(m)/T_i(m) with
// multiplier 1, or ok = false when T_i(m) is unbounded: the one term
// definition behind Set.UtilSum and dbf.SetState's per-edit updates of
// that sum.
func (t *Task) UtilLeaf(m Crit) (num, den, mul int64, ok bool) {
	if t.Period[m].IsUnbounded() {
		return 0, 0, 0, false
	}
	return int64(t.WCET[m]), int64(t.Period[m]), 1, true
}

// Gamma returns γ_i = C_i(HI)/C_i(LO), the WCET uncertainty factor used in
// the paper's Fig. 5b and Fig. 6 captions.
func (t *Task) Gamma() rat.Rat {
	return rat.New(int64(t.WCET[HI]), int64(t.WCET[LO]))
}

// Validate checks the structural constraints of Section II:
// positive parameters, constrained deadlines in every mode, and
// eqs. (1)–(3) according to the task's criticality.
func (t *Task) Validate() error {
	for _, m := range []Crit{LO, HI} {
		if t.Period[m] <= 0 {
			return fmt.Errorf("task %s: T(%v) = %d must be positive", t.Name, m, t.Period[m])
		}
		if t.Deadline[m] <= 0 {
			return fmt.Errorf("task %s: D(%v) = %d must be positive", t.Name, m, t.Deadline[m])
		}
		if t.WCET[m] <= 0 {
			return fmt.Errorf("task %s: C(%v) = %d must be positive", t.Name, m, t.WCET[m])
		}
		if t.WCET[m].IsUnbounded() {
			return fmt.Errorf("task %s: C(%v) must be finite", t.Name, m)
		}
		if !t.Deadline[m].IsUnbounded() && t.Deadline[m] < t.WCET[m] {
			return fmt.Errorf("task %s: D(%v) = %d < C(%v) = %d is trivially infeasible",
				t.Name, m, t.Deadline[m], m, t.WCET[m])
		}
		if t.Deadline[m] > t.Period[m] {
			return fmt.Errorf("task %s: constrained deadlines required, D(%v) = %d > T(%v) = %d",
				t.Name, m, t.Deadline[m], m, t.Period[m])
		}
	}
	switch t.Crit {
	case HI:
		if t.Period[LO].IsUnbounded() || t.Period[HI].IsUnbounded() {
			return fmt.Errorf("task %s: HI-criticality task must have finite periods", t.Name)
		}
		if t.Period[HI] != t.Period[LO] {
			return fmt.Errorf("task %s: eq. (1) requires T(HI) = T(LO), got %d != %d",
				t.Name, t.Period[HI], t.Period[LO])
		}
		if t.Deadline[LO] >= t.Deadline[HI] {
			return fmt.Errorf("task %s: eq. (1) requires D(LO) < D(HI), got %d >= %d",
				t.Name, t.Deadline[LO], t.Deadline[HI])
		}
		if t.WCET[HI] < t.WCET[LO] {
			return fmt.Errorf("task %s: eq. (1) requires C(HI) >= C(LO), got %d < %d",
				t.Name, t.WCET[HI], t.WCET[LO])
		}
	case LO:
		if t.Period[LO].IsUnbounded() {
			return fmt.Errorf("task %s: T(LO) must be finite", t.Name)
		}
		if t.WCET[HI] != t.WCET[LO] {
			return fmt.Errorf("task %s: eq. (2) requires C(HI) = C(LO), got %d != %d",
				t.Name, t.WCET[HI], t.WCET[LO])
		}
		if t.Period[HI].IsUnbounded() != t.Deadline[HI].IsUnbounded() {
			return fmt.Errorf("task %s: termination requires both T(HI) and D(HI) unbounded", t.Name)
		}
		if !t.Period[HI].IsUnbounded() && t.Period[HI] < t.Period[LO] {
			return fmt.Errorf("task %s: eq. (2) requires T(HI) >= T(LO), got %d < %d",
				t.Name, t.Period[HI], t.Period[LO])
		}
		if !t.Deadline[HI].IsUnbounded() && t.Deadline[HI] < t.Deadline[LO] {
			return fmt.Errorf("task %s: eq. (2) requires D(HI) >= D(LO), got %d < %d",
				t.Name, t.Deadline[HI], t.Deadline[LO])
		}
	default:
		return fmt.Errorf("task %s: unknown criticality %v", t.Name, t.Crit)
	}
	return nil
}

// String renders the task in the layout of the paper's Table I.
func (t *Task) String() string {
	fmtT := func(x Time) string {
		if x.IsUnbounded() {
			return "inf"
		}
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%s[%v] C=(%s,%s) D=(%s,%s) T=(%s,%s)",
		t.Name, t.Crit,
		fmtT(t.WCET[LO]), fmtT(t.WCET[HI]),
		fmtT(t.Deadline[LO]), fmtT(t.Deadline[HI]),
		fmtT(t.Period[LO]), fmtT(t.Period[HI]))
}

// NewHI builds a HI-criticality task with equal periods in both modes.
func NewHI(name string, period, dLO, dHI, cLO, cHI Time) Task {
	return Task{
		Name:     name,
		Crit:     HI,
		Period:   [2]Time{period, period},
		Deadline: [2]Time{dLO, dHI},
		WCET:     [2]Time{cLO, cHI},
	}
}

// NewLO builds a LO-criticality task; the HI-mode service parameters
// default to the LO-mode ones (no degradation).
func NewLO(name string, period, deadline, wcet Time) Task {
	return Task{
		Name:     name,
		Crit:     LO,
		Period:   [2]Time{period, period},
		Deadline: [2]Time{deadline, deadline},
		WCET:     [2]Time{wcet, wcet},
	}
}

// NewImplicitHI builds an implicit-deadline HI task per eq. (13):
// D(HI) = T, with the LO-mode virtual deadline set separately (often
// by Set.ShortenHIDeadlines).
func NewImplicitHI(name string, period, cLO, cHI Time) Task {
	// The virtual deadline defaults to period-1 so the task validates;
	// analyses that need a specific x apply ShortenHIDeadlines.
	d := period - 1
	if d < cLO {
		d = cLO
	}
	return NewHI(name, period, d, period, cLO, cHI)
}

// NewImplicitLO builds an implicit-deadline LO task per eq. (14) with
// y = 1 (no degradation yet).
func NewImplicitLO(name string, period, wcet Time) Task {
	return NewLO(name, period, period, wcet)
}
