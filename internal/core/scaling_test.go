package core

import (
	"testing"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// scaleTimes multiplies every finite period, deadline and WCET of s by k.
func scaleTimes(s task.Set, k task.Time) task.Set {
	out := s.Clone()
	for i := range out {
		for _, ts := range []*[2]task.Time{&out[i].Period, &out[i].Deadline, &out[i].WCET} {
			for m := range ts {
				if ts[m] != task.Unbounded {
					ts[m] *= k
				}
			}
		}
	}
	return out
}

// TestTimeScalingInvariance is the metamorphic property of the paper's
// analyses under a change of time unit: multiplying every period,
// deadline and WCET by k leaves every demand/length ratio unchanged, so
// Theorem 2's s_min and its exactness stay put, while Corollary 5's
// resetting time Δ_R is a length and scales by exactly k.
func TestTimeScalingInvariance(t *testing.T) {
	sets := append(prunedSets(t, 40), fmsPreparedSet(t))
	for si, s := range sets {
		sp, err := MinSpeedup(s)
		if err != nil {
			t.Fatalf("set %d: MinSpeedup: %v", si, err)
		}
		rr, err := ResetTime(s, rat.Two)
		if err != nil {
			t.Fatalf("set %d: ResetTime: %v", si, err)
		}
		for _, k := range []task.Time{2, 3, 7} {
			scaled := scaleTimes(s, k)
			ssp, err := MinSpeedup(scaled)
			if err != nil {
				t.Fatalf("set %d ×%d: MinSpeedup: %v", si, k, err)
			}
			if !ssp.Speedup.Eq(sp.Speedup) || ssp.Exact != sp.Exact {
				t.Errorf("set %d ×%d: s_min %v (exact %v), want %v (exact %v)",
					si, k, ssp.Speedup, ssp.Exact, sp.Speedup, sp.Exact)
			}
			srr, err := ResetTime(scaled, rat.Two)
			if err != nil {
				t.Fatalf("set %d ×%d: ResetTime: %v", si, k, err)
			}
			want := rr.Reset
			if !want.IsInf() {
				want = want.MulInt(int64(k))
			}
			if !srr.Reset.Eq(want) {
				t.Errorf("set %d ×%d: Δ_R %v, want %v = %d·%v", si, k, srr.Reset, want, k, rr.Reset)
			}
		}
	}
}
