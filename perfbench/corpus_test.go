package main

import (
	"bytes"
	"testing"

	"mcspeedup/internal/task"
)

// testSpecs cover every period structure at sizes that generate quickly.
var testSpecs = []Spec{
	{N: 10, Periods: Harmonic, U: 0.9, Copies: 2},
	{N: 10, Periods: LogUniform, U: 0.9, Copies: 2},
	{N: 100, Periods: Coprime, U: 0.9, Copies: 2},
	{N: 100, Periods: LogUniform, U: 0.9, Copies: 2},
}

func TestCorpusDigestFollowsSeed(t *testing.T) {
	digest := func(seed int64) string {
		c, err := NewCorpus(seed, testSpecs)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range c.Sets {
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d set %d (%v): %v", seed, i, c.Specs[i], err)
			}
			if len(s) != c.Specs[i].N {
				t.Fatalf("seed %d set %d: %d tasks, want %d", seed, i, len(s), c.Specs[i].N)
			}
		}
		return c.Digest()
	}
	a, b, other := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("seed 7 gave digests %s and %s", a, b)
	}
	if a == other {
		t.Errorf("seeds 7 and 8 gave the same digest %s", a)
	}
}

func TestCoprimePeriodsAreDistinctPrimes(t *testing.T) {
	c, err := NewCorpus(3, []Spec{{N: 1000, Periods: Coprime, U: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, tk := range c.Sets[0] {
		p := int64(tk.Period[0])
		if seen[p] {
			t.Fatalf("period %d repeats", p)
		}
		seen[p] = true
		for d := int64(2); d*d <= p; d++ {
			if p%d == 0 {
				t.Fatalf("period %d is not prime", p)
			}
		}
	}
}

func TestServeCorpusFollowsSeed(t *testing.T) {
	a, err := newServeCorpus(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newServeCorpus(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.bodies[0] {
		if !bytes.Equal(a.bodies[0][i], b.bodies[0][i]) || !bytes.Equal(a.bodies[1][i], b.bodies[1][i]) {
			t.Fatalf("seed 5 body %d differs between draws", i)
		}
		s, err := task.ParseJSON(a.bodies[1][i])
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if n := len(s); n < 8 || n > 64 {
			t.Fatalf("set %d has %d tasks, want 8..64", i, n)
		}
		if bytes.Equal(a.bodies[0][i], a.bodies[1][i]) {
			t.Fatalf("set %d: reordered body equals the original", i)
		}
	}
	s1, s2 := serveStream(5, 1000), serveStream(6, 1000)
	same := 0
	for i := range s1 {
		if s1[i] == s2[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Error("seeds 5 and 6 drew the same request stream")
	}
}
