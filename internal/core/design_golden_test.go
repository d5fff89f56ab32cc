package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Design-search coverage: a golden file pins the results of the three
// searches (MinimalY, FeasibleXWindow, TuneDeadlines) over generator
// sets, and a differential checks every cap decision the bisecting
// searches take against the oracle. Together they hold the capProbe's
// witness certificate to its contract: it may only skip walks whose
// outcome it has proved, so neither a verdict nor a result may move.

// renderSet gives a byte-exact fingerprint of a set for equality checks.
func renderSet(s task.Set) string {
	if s == nil {
		return "<nil>"
	}
	return s.Table()
}

func genSets(t *testing.T, n int) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(20260805))
	p := gen.Defaults()
	sets := make([]task.Set, 0, n)
	for i := 0; i < n; i++ {
		u := 0.4 + 0.5*rnd.Float64()
		sets = append(sets, p.MustSet(rnd, u))
	}
	return sets
}

// lightSets are generator sets at utilization 0.2–0.5 with minimal
// virtual deadlines (MinimalX, where it succeeds): light enough that the
// design searches mostly succeed.
func lightSets(t *testing.T, n int) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(7))
	p := gen.Defaults()
	sets := make([]task.Set, 0, n)
	for i := 0; i < n; i++ {
		s := p.MustSet(rnd, 0.2+0.3*rnd.Float64())
		if _, prepared, err := MinimalX(s); err == nil {
			s = prepared
		}
		sets = append(sets, s)
	}
	return sets
}

// designCaps straddle feasibility, so the searches' accept, reject and
// error paths all appear.
var designCaps = []rat.Rat{rat.New(11, 10), rat.New(3, 2), rat.Two}

// renderDesignSearches runs MinimalY and FeasibleXWindow against
// designCaps and TuneDeadlines at two steps, one line per query, over
// 25 generator sets at utilization 0.4–0.9 (TuneDeadlines on the first
// 20), whose LO-mode load sends most queries down the error paths, 20
// lightSets, where the searches mostly succeed, and the prepared FMS set
// and the design-search benchmarks' benchTuneSet. Result sets appear as
// a digest of their Table rendering.
func renderDesignSearches(t *testing.T) string {
	var b strings.Builder
	digest := func(s task.Set) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(renderSet(s))))[:16]
	}
	render := func(corpus string, i int, s task.Set, tune bool) {
		for _, cap := range designCaps {
			if y, set, err := MinimalY(s, cap); err != nil {
				fmt.Fprintf(&b, "%s %d MinimalY cap=%v err=%v\n", corpus, i, cap, err)
			} else {
				fmt.Fprintf(&b, "%s %d MinimalY cap=%v y=%v set=%s\n", corpus, i, cap, y, digest(set))
			}
		}
		for _, cap := range designCaps {
			if lo, hi, err := FeasibleXWindow(s, cap); err != nil {
				fmt.Fprintf(&b, "%s %d FeasibleXWindow cap=%v err=%v\n", corpus, i, cap, err)
			} else {
				fmt.Fprintf(&b, "%s %d FeasibleXWindow cap=%v x=[%v,%v]\n", corpus, i, cap, lo, hi)
			}
		}
		if !tune {
			return
		}
		for _, step := range []rat.Rat{rat.New(1, 16), rat.New(1, 4)} {
			if r, err := TuneDeadlines(s, step); err != nil {
				fmt.Fprintf(&b, "%s %d TuneDeadlines step=%v err=%v\n", corpus, i, step, err)
			} else {
				fmt.Fprintf(&b, "%s %d TuneDeadlines step=%v speedup=%v uniform=%v rounds=%d set=%s\n",
					corpus, i, step, r.Speedup, r.UniformSpeedup, r.Rounds, digest(r.Set))
			}
		}
	}
	for i, s := range genSets(t, 25) {
		render("gen", i, s, i < 20)
	}
	for i, s := range lightSets(t, 20) {
		render("light", i, s, true)
	}
	render("fms", 0, fmsPreparedSet(t), true)
	render("bench", 0, benchTuneSet(), true)
	return b.String()
}

// TestDesignSearchesGolden pins the three design searches' results to
// testdata/design_searches.golden, byte for byte.
func TestDesignSearchesGolden(t *testing.T) {
	path := filepath.Join("testdata", "design_searches.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := renderDesignSearches(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// TestCapProbeVerdictsMatchOracle records every capProbe verdict of
// MinimalY's and FeasibleXWindow's candidate streams — certificate
// rejections and cap-hinted walks alike — and checks each against the
// oracle's exact s_min ≤ cap for that candidate.
func TestCapProbeVerdictsMatchOracle(t *testing.T) {
	type verdict struct {
		set   task.Set
		cap   rat.Rat
		meets bool
	}
	checked := 0
	for i, s := range lightSets(t, 8) {
		var stream []verdict
		sc := &Scratch{audit: func(set task.Set, cap rat.Rat, meets bool) {
			stream = append(stream, verdict{set.Clone(), cap, meets})
		}}
		for _, cap := range designCaps {
			_, _, _ = MinimalYOpts(s, cap, Options{Scratch: sc})
			_, _, _ = FeasibleXWindowOpts(s, cap, Options{Scratch: sc})
		}
		for j, v := range stream {
			want, err := oracleMinSpeedup(v.set, Options{})
			if err != nil {
				t.Fatalf("set %d candidate %d: oracle: %v", i, j, err)
			}
			if !want.Exact {
				continue
			}
			if got := want.Speedup.Cmp(v.cap) <= 0; got != v.meets {
				t.Fatalf("set %d candidate %d cap %v: probe decided %v, oracle s_min %v\n%s",
					i, j, v.cap, v.meets, want.Speedup, v.set.Table())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no exact verdicts checked")
	}
}

// TestMinimalXDeterministic pins that MinimalX (which the warm-started
// searches build on) is a pure function of its input across repeated
// calls on generator sets.
func TestMinimalXDeterministic(t *testing.T) {
	for i, s := range genSets(t, 10) {
		x1, set1, err1 := MinimalX(s)
		x2, set2, err2 := MinimalX(s)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("set %d: err %v != %v", i, err1, err2)
		}
		if err1 == nil && (!x1.Eq(x2) || renderSet(set1) != renderSet(set2)) {
			t.Fatalf("set %d: repeated MinimalX diverged: %v vs %v", i, x1, x2)
		}
	}
}
