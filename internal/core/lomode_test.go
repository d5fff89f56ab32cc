package core

import (
	"math/big"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

func TestSchedulableLOBasics(t *testing.T) {
	ok, err := SchedulableLO(examplesets.TableI())
	if err != nil || !ok {
		t.Errorf("Table I LO-schedulable = %v, %v; want true", ok, err)
	}

	// Overload: U(LO) > 1.
	over := task.Set{task.NewLO("a", 10, 10, 6), task.NewLO("b", 10, 10, 6)}
	if ok, _ := SchedulableLO(over); ok {
		t.Error("overloaded set accepted")
	}

	// Exactly U = 1, all implicit: schedulable.
	full := task.Set{task.NewLO("a", 10, 10, 5), task.NewLO("b", 10, 10, 5)}
	if ok, err := SchedulableLO(full); err != nil || !ok {
		t.Errorf("implicit U=1 set = %v, %v; want true", ok, err)
	}

	// U = 1 with a constrained deadline: conservatively rejected.
	constr := task.Set{task.NewLO("a", 10, 5, 5), task.NewLO("b", 10, 10, 5)}
	if ok, _ := SchedulableLO(constr); ok {
		t.Error("U=1 constrained set accepted (must be conservative)")
	}

	// Two tasks with tight constrained deadlines that collide:
	// DBF(5) = 3 + 3 > 5.
	tight := task.Set{task.NewLO("a", 20, 5, 3), task.NewLO("b", 20, 5, 3)}
	if ok, _ := SchedulableLO(tight); ok {
		t.Error("colliding-deadline set accepted")
	}
}

// TestSchedulableLOHorizonOverflow: a U < 1 set whose QPA horizon
// exceeds int64 is conservatively rejected, by the cold test and the
// state-aware one alike, instead of running QPA from a wrapped horizon.
func TestSchedulableLOHorizonOverflow(t *testing.T) {
	for i, s := range []task.Set{
		// Horizon ≈ 4.9e24, which used to wrap to 466633565525765444.
		{task.NewLO("a", 1000000007, 997537961, 995075916), task.NewLO("b", 998244353, 501579899, 4915446)},
		// Horizon ≈ 3.3e19, which used to wrap negative and fall back to
		// max D = 9833352.
		{task.NewLO("a", 10000019, 9833352, 9833352), task.NewLO("b", 10000079, 166668, 166668)},
		// Horizon ≈ 1.1e19, which used to wrap below max D = 8298971;
		// QPA found no violation up to there and accepted the set.
		{task.NewLO("a", 8298971, 8298971, 7342078), task.NewLO("b", 7263886, 2304433, 837545)},
	} {
		u := s.UtilSum(task.LO, nil)
		if u.Cmp(big.NewRat(1, 1)) >= 0 {
			t.Fatalf("set %d: U(LO) = %v, want < 1", i, u)
		}
		if limit, ok := loHorizonFrom(s, dbf.LODemandSum(s), u); ok {
			t.Errorf("set %d: horizon %d reported in range", i, limit)
		}
		if ok, err := SchedulableLO(s); err != nil || ok {
			t.Errorf("set %d: SchedulableLO = %v, %v; want false", i, ok, err)
		}
		st, err := dbf.NewSetState(s)
		if err != nil {
			t.Fatal(err)
		}
		if schedulableLOState(st) {
			t.Errorf("set %d: state-aware LO test accepted", i)
		}
	}
}

// bruteSchedulableLO checks the processor demand criterion over one
// LO-mode hyperperiod plus the largest deadline, which is exhaustive for
// U ≤ 1 synchronous-release demand analysis on integer parameters.
func bruteSchedulableLO(s task.Set) bool {
	if s.Util(task.LO).Cmp(rat.One) > 0 {
		return false
	}
	l := task.Time(1)
	var maxD task.Time
	for i := range s {
		p := s[i].Period[task.LO]
		l = l / gcdTime(l, p) * p
		if d := s[i].Deadline[task.LO]; d > maxD {
			maxD = d
		}
	}
	for d := task.Time(1); d <= l+maxD; d++ {
		if dbf.SetLOMode(s, d) > d {
			return false
		}
	}
	return true
}

func TestSchedulableLOAgainstBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	agreeTrue, agreeFalse := 0, 0
	for i := 0; i < 500; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 12)
		got, err := SchedulableLO(s)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSchedulableLO(s)
		if got != want {
			// The only permitted disagreement is the documented
			// conservative rejection at U exactly 1.
			if !got && s.Util(task.LO).Eq(rat.One) {
				continue
			}
			t.Fatalf("set:\n%s\nSchedulableLO = %v, brute = %v", s.Table(), got, want)
		}
		if got {
			agreeTrue++
		} else {
			agreeFalse++
		}
	}
	if agreeTrue == 0 || agreeFalse == 0 {
		t.Fatalf("degenerate test corpus: %d true, %d false", agreeTrue, agreeFalse)
	}
}

func TestMinimalX(t *testing.T) {
	s := task.Set{
		task.NewImplicitHI("h1", 100, 10, 20),
		task.NewImplicitHI("h2", 200, 20, 50),
		task.NewImplicitLO("l1", 50, 10),
	}
	x, out, err := MinimalX(s)
	if err != nil {
		t.Fatal(err)
	}
	if x.Sign() <= 0 || x.Cmp(rat.One) >= 0 {
		t.Fatalf("x = %v outside (0,1)", x)
	}
	ok, err := SchedulableLO(out)
	if err != nil || !ok {
		t.Fatalf("MinimalX result not LO-schedulable: %v, %v", ok, err)
	}
	// Minimality on the search grid: one grid step tighter must fail.
	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI && s[i].Deadline[task.HI] > dMax {
			dMax = s[i].Deadline[task.HI]
		}
	}
	tighter := x.Sub(rat.New(1, int64(dMax)))
	if tighter.Sign() > 0 {
		cand, err := s.ShortenHIDeadlines(tighter)
		if err == nil {
			if ok, _ := SchedulableLO(cand); ok {
				// Only a failure if the deadline vector actually
				// changed (clamping can make x−1/Dmax equivalent).
				same := true
				for i := range cand {
					if cand[i].Deadline[task.LO] != out[i].Deadline[task.LO] {
						same = false
					}
				}
				if !same {
					t.Errorf("x = %v not minimal: %v also schedulable", x, tighter)
				}
			}
		}
	}
	// Smaller x must yield pointwise smaller (or equal) virtual deadlines.
	for i := range out {
		if out[i].Crit == task.HI && out[i].Deadline[task.LO] >= out[i].Deadline[task.HI] {
			t.Errorf("task %s: virtual deadline not shortened", out[i].Name)
		}
	}
}

func TestMinimalXNoHITasks(t *testing.T) {
	s := task.Set{task.NewImplicitLO("l", 10, 5)}
	x, out, err := MinimalX(s)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Eq(rat.One) || len(out) != 1 {
		t.Errorf("x = %v, out = %v", x, out)
	}

	bad := task.Set{task.NewImplicitLO("l", 10, 15&^1)} // C > D: invalid
	if _, _, err := MinimalX(bad); err == nil {
		t.Error("invalid set accepted")
	}
}

func TestMinimalXInfeasible(t *testing.T) {
	// LO-mode utilization above 1 can never be schedulable.
	s := task.Set{
		task.NewImplicitHI("h", 10, 6, 8),
		task.NewImplicitLO("l", 10, 6),
	}
	if _, _, err := MinimalX(s); err == nil {
		t.Error("infeasible set accepted")
	}
}

func TestMinimalXMonotoneProperty(t *testing.T) {
	// For random implicit-deadline sets: if MinimalX succeeds, every
	// larger grid x is also schedulable (spot-check a few).
	rnd := rand.New(rand.NewSource(37))
	for i := 0; i < 60; i++ {
		s := randomImplicitSet(rnd, 2+rnd.Intn(3), 30)
		x, _, err := MinimalX(s)
		if err != nil {
			continue
		}
		for _, bump := range []rat.Rat{rat.New(1, 20), rat.New(1, 7)} {
			x2 := x.Add(bump)
			if x2.Cmp(rat.One) >= 0 {
				continue
			}
			cand, err := s.ShortenHIDeadlines(x2)
			if err != nil {
				t.Fatal(err)
			}
			if ok, _ := SchedulableLO(cand); !ok {
				t.Fatalf("feasibility not monotone: x=%v ok but x=%v fails for:\n%s", x, x2, s.Table())
			}
		}
	}
}

// randomImplicitSet builds implicit-deadline sets in the style of the
// paper's Section V special case (before applying x).
func randomImplicitSet(rnd *rand.Rand, n int, maxPeriod int64) task.Set {
	s := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := task.Time(rnd.Int63n(maxPeriod-4) + 5)
		cLO := task.Time(rnd.Int63n(int64(period)/4+1) + 1)
		name := string(rune('a' + i))
		if rnd.Intn(2) == 0 {
			cHI := cLO + task.Time(rnd.Int63n(int64(period-cLO)/2+1))
			s = append(s, task.NewImplicitHI(name, period, cLO, cHI))
		} else {
			s = append(s, task.NewImplicitLO(name, period, cLO))
		}
	}
	return s
}
