package core

import (
	"math/big"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// qpaLimit is the production QPA horizon of s, with ok=false when
// U(LO) ≥ 1 or the horizon overflows int64.
func qpaLimit(s task.Set) (int64, bool) {
	u := s.UtilSum(task.LO, nil)
	if u.Cmp(big.NewRat(1, 1)) >= 0 {
		return 0, false
	}
	return loHorizonFrom(s, dbf.LODemandSum(s), u)
}

// TestLOHorizonMatchesRationalCeil pins loHorizonFrom's integer ceiling
// to its definition: max(max D(LO), ⌈Σ(T−D)·C/T / (1−U)⌉) with the
// quotient formed as a normalized big.Rat. The sets are random small
// ones and the 320-task prime-period set, whose sums have thousands of
// bits.
func TestLOHorizonMatchesRationalCeil(t *testing.T) {
	reference := func(s task.Set, sum, u *big.Rat) (int64, bool) {
		h := new(big.Rat).Quo(sum, new(big.Rat).Sub(big.NewRat(1, 1), u))
		q := new(big.Int).Quo(h.Num(), h.Denom())
		if h.Sign() > 0 && !h.IsInt() {
			q.Add(q, big.NewInt(1))
		}
		if !q.IsInt64() {
			return 0, false
		}
		limit := q.Int64()
		for i := range s {
			limit = max(limit, int64(s[i].Deadline[task.LO]))
		}
		return limit, true
	}
	rnd := rand.New(rand.NewSource(602))
	sets := []task.Set{coprimeStateSet(t, 320)}
	for i := 0; i < 500; i++ {
		sets = append(sets, randomSet(rnd, 1+rnd.Intn(8), 1000))
	}
	checked := 0
	for _, s := range sets {
		u := s.UtilSum(task.LO, nil)
		if u.Cmp(big.NewRat(1, 1)) >= 0 {
			continue
		}
		sum := dbf.LODemandSum(s)
		got, gotOK := loHorizonFrom(s, sum, u)
		want, wantOK := reference(s, sum, u)
		if got != want || gotOK != wantOK {
			t.Fatalf("loHorizonFrom = %d, %v; reference %d, %v for:\n%s", got, gotOK, want, wantOK, s.Table())
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d sets with U(LO) < 1", checked)
	}
}

// TestQPAAgainstDemandWalk: the QPA iteration and the full testing-point
// walk must agree on every random set with U < 1.
func TestQPAAgainstDemandWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(601))
	yes, no := 0, 0
	for iter := 0; iter < 2000; iter++ {
		s := randomSet(rnd, 1+rnd.Intn(5), 30)
		limit, ok := qpaLimit(s)
		if !ok {
			continue
		}
		got := qpaLO(s, limit)
		want := demandWalkLO(s, limit)
		if got != want {
			t.Fatalf("QPA = %v, walk = %v for:\n%s", got, want, s.Table())
		}
		if got {
			yes++
		} else {
			no++
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("degenerate corpus: %d schedulable, %d not", yes, no)
	}
}

// TestQPAOnGeneratorSets: agreement on the experiment-scale sets too
// (larger periods, many tasks, shortened deadlines).
func TestQPAOnGeneratorSets(t *testing.T) {
	rnd := rand.New(rand.NewSource(602))
	p := gen.Defaults()
	for iter := 0; iter < 40; iter++ {
		base := p.MustSet(rnd, 0.5+0.4*rnd.Float64())
		// Random uniform deadline shortening stresses constrained
		// deadlines.
		x := rat.New(rnd.Int63n(80)+10, 100)
		s, err := base.ShortenHIDeadlines(x)
		if err != nil {
			continue
		}
		limit, ok := qpaLimit(s)
		if !ok {
			continue
		}
		if got, want := qpaLO(s, limit), demandWalkLO(s, limit); got != want {
			t.Fatalf("QPA = %v, walk = %v for generator set:\n%s", got, want, s.Table())
		}
	}
}

func TestQPAKnownCases(t *testing.T) {
	// Colliding tight deadlines: h(5) = 6 > 5.
	tight := task.Set{task.NewLO("a", 20, 5, 3), task.NewLO("b", 20, 5, 3)}
	if limit, _ := qpaLimit(tight); qpaLO(tight, limit) {
		t.Error("QPA accepted an overloaded instant")
	}
	// A single implicit task is always schedulable.
	one := task.Set{task.NewLO("a", 10, 10, 9)}
	if limit, _ := qpaLimit(one); !qpaLO(one, limit) {
		t.Error("QPA rejected a trivially schedulable set")
	}
}

func BenchmarkQPAVsWalk(b *testing.B) {
	rnd := rand.New(rand.NewSource(603))
	p := gen.Defaults()
	var (
		s     task.Set
		limit int64
	)
	for { // redraw until the LO mode is not saturated
		base := p.MustSet(rnd, 0.85)
		cand, err := base.ShortenHIDeadlines(rat.New(6, 10))
		if err != nil {
			continue
		}
		var ok bool
		if limit, ok = qpaLimit(cand); ok {
			s = cand
			break
		}
	}
	b.Run("qpa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qpaLO(s, limit)
		}
	})
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			demandWalkLO(s, limit)
		}
	})
}
