package core

import (
	"reflect"
	"strings"
	"testing"

	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

func TestAnalyzeReport(t *testing.T) {
	r, err := Analyze(examplesets.TableI(), rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SchedulableLO || !r.SchedulableHI || !r.Safe() {
		t.Fatalf("Table I at s=2 must be safe: %+v", r)
	}
	if !r.Speedup.Speedup.Eq(rat.New(4, 3)) || !r.Reset.Reset.Eq(rat.FromInt64(6)) {
		t.Fatalf("report numbers: %v, %v", r.Speedup.Speedup, r.Reset.Reset)
	}
	if !r.UtilLO.Eq(rat.New(2, 5)) || !r.UtilHI.Eq(rat.New(3, 5)) {
		t.Fatalf("utilizations: %v, %v", r.UtilLO, r.UtilHI)
	}
	out := r.Render()
	for _, want := range []string{"s_min = 4/3", "Δ_R = 6", "SAFE", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// Below s_min: analyzable but not safe.
	r, err = Analyze(examplesets.TableI(), rat.One)
	if err != nil {
		t.Fatal(err)
	}
	if r.SchedulableHI || r.Safe() {
		t.Fatalf("s=1 must not be HI-schedulable: %+v", r)
	}
	if !r.Reset.Reset.IsInf() == false && r.Reset.Reset.Sign() <= 0 {
		t.Fatalf("reset at s=1: %v", r.Reset.Reset)
	}

	// Invalid inputs.
	if _, err := Analyze(task.Set{}, rat.Two); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Analyze(examplesets.TableI(), rat.Zero); err == nil {
		t.Error("zero speed accepted")
	}
}

// coprimeOverflowSet has distinct prime periods, so the HI-mode
// utilization's reduced denominator overflows UtilBounds' int64 fast
// path and the report runs on the directed-rounded big.Rat bounds.
func coprimeOverflowSet(t *testing.T) task.Set {
	t.Helper()
	var s task.Set
	primes := []task.Time{10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093, 10099, 10103}
	for i, p := range primes {
		name := string(rune('a' + i))
		if i%3 == 2 {
			s = append(s, task.NewLO(name, p, p-7*task.Time(i), 300+task.Time(i)))
		} else {
			s = append(s, task.NewHI(name, p, p/2+task.Time(i), p, 250+task.Time(i), 700+task.Time(i)))
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if lo, hi := s.UtilBounds(task.HI); lo.Eq(hi) {
		t.Fatalf("U(HI) = %v is exact; want the big.Rat fallback", hi)
	}
	return s
}

// TestAnalyzeMatchesPublicParts ties the one report pipeline, which
// Session shares, to the public single-analysis functions: Analyze must
// equal the report assembled from Util, SchedulableLO, MinSpeedupOpts,
// ResetTimeOpts and the closed forms.
func TestAnalyzeMatchesPublicParts(t *testing.T) {
	sets := append(prunedSets(t, 8), fmsPreparedSet(t), coprimeOverflowSet(t))
	for si, s := range sets {
		for _, speed := range []rat.Rat{rat.New(3, 2), rat.Two, rat.FromInt64(4)} {
			got, err := Analyze(s, speed)
			if err != nil {
				t.Fatalf("set %d speed %v: %v", si, speed, err)
			}
			want := Report{
				Set:           s,
				Speed:         speed,
				UtilLO:        s.Util(task.LO),
				UtilHI:        s.Util(task.HI),
				ClosedSpeedup: ClosedFormSpeedup(s),
				ClosedReset:   ClosedFormReset(s, speed),
			}
			if want.SchedulableLO, err = SchedulableLO(s); err != nil {
				t.Fatal(err)
			}
			if want.Speedup, err = MinSpeedupOpts(s, Options{}); err != nil {
				t.Fatal(err)
			}
			want.SchedulableHI = speed.Cmp(want.Speedup.Speedup) >= 0
			if want.Reset, err = ResetTimeOpts(s, speed, Options{}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d speed %v: Analyze != public parts\nAnalyze: %+v\nparts:   %+v", si, speed, got, want)
			}
		}
	}
}
