package examplesets

import (
	"testing"

	"mcspeedup/internal/task"
)

func TestTableIVariantsValidate(t *testing.T) {
	base := TableI()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	deg := TableIDegraded()
	if err := deg.Validate(); err != nil {
		t.Fatal(err)
	}
	if deg[1].Deadline[task.HI] != 15 || deg[1].Period[task.HI] != 20 {
		t.Errorf("degraded parameters: %s", deg[1].String())
	}
	// The constructors return fresh copies.
	base[0].Name = "mutated"
	if TableI()[0].Name != "tau1" {
		t.Error("TableI returns aliased state")
	}
}

func TestCoprime(t *testing.T) {
	for _, n := range []int{1, 250, 1000, 4000} {
		s := Coprime(n)
		if err := s.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[task.Time]bool, n)
		for i := range s {
			p := s[i].Period[task.LO]
			if p < 1000 || p > 100000 || seen[p] {
				t.Fatalf("n=%d: period %d out of range or repeated", n, p)
			}
			seen[p] = true
			for d := task.Time(2); d*d <= p; d++ {
				if p%d == 0 {
					t.Fatalf("n=%d: period %d is not prime", n, p)
				}
			}
		}
		if n >= 250 {
			if u := s.Util(task.LO).Float64(); u < 0.85 || u > 1 {
				t.Errorf("n=%d: U(LO) = %.3f, want ≈ 0.9", n, u)
			}
		}
	}
}
