// Package benchcases is the one registry of the micro-benchmark rows
// tracked in BENCH_core.json. cmd/mcs-bench measures every row with
// testing.Benchmark, and the root BenchmarkCore runs the same rows under
// `go test -bench 'Core/<name>$'`, so a row name means one input set and
// one operation everywhere.
package benchcases

import (
	"errors"
	"math/rand"

	"mcspeedup"
	"mcspeedup/internal/examplesets"
)

// Case is one BENCH_core.json row.
type Case struct {
	Name string
	// Setup builds the row's inputs and any state its operation carries
	// across iterations, and returns the operation one iteration runs.
	Setup func() (op func() error, err error)
}

// Cases lists the rows in BENCH_core.json order.
var Cases = []Case{
	{"MinSpeedupFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		return func() error {
			_, err := mcspeedup.MinSpeedup(fms)
			return err
		}, nil
	})},
	{"MinSpeedupFMSScratch", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		o := mcspeedup.AnalysisOptions{Scratch: new(mcspeedup.AnalysisScratch)}
		return func() error {
			_, err := mcspeedup.MinSpeedupOpts(fms, o)
			return err
		}, nil
	})},
	{"ResetTimeFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		o := mcspeedup.AnalysisOptions{Scratch: new(mcspeedup.AnalysisScratch)}
		return func() error {
			_, err := mcspeedup.ResetTimeOpts(fms, mcspeedup.RatTwo, o)
			return err
		}, nil
	})},
	{"MinSpeedForResetFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		o := mcspeedup.AnalysisOptions{Scratch: new(mcspeedup.AnalysisScratch)}
		return func() error {
			_, err := mcspeedup.MinSpeedForResetOpts(fms, 50_000, o)
			return err
		}, nil
	})},
	{"MinimalY", func() (func() error, error) {
		set := designSearchSet()
		return func() error {
			_, _, err := mcspeedup.MinimalY(set, mcspeedup.RatTwo)
			return err
		}, nil
	}},
	{"TuneDeadlines", func() (func() error, error) {
		set := designSearchSet()
		return func() error {
			_, err := mcspeedup.TuneDeadlines(set, mcspeedup.RatZero)
			return err
		}, nil
	}},
	{"FeasibleXWindowFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		return func() error {
			_, _, err := mcspeedup.FeasibleXWindow(fms, mcspeedup.RatTwo)
			return err
		}, nil
	})},
	{"AnalyzeColdFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		return func() error {
			_, err := mcspeedup.AnalyzeSet(fms, mcspeedup.RatTwo)
			return err
		}, nil
	})},
	// A full cold Analyze whose cost is the exact sums: 1000 tasks with
	// distinct prime periods in [1000, 100000] at U(LO) ≈ 0.9, so their
	// denominators are products of 1000 primes.
	{"AnalyzeColdCoprime1000", func() (func() error, error) {
		_, set, err := mcspeedup.MinimalX(examplesets.Coprime(1000))
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := mcspeedup.AnalyzeSet(set, mcspeedup.RatTwo)
			return err
		}, nil
	}},
	// One simulator run over a 20-period synchronous workload with
	// every-fifth-job overruns, through the compiled zero-allocation
	// entry point: allocs/op must read 0.
	{"SimRunFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		wl := mcspeedup.SynchronousPeriodic(fms, 20*fms.MaxPeriod(), func(_, seq int) bool {
			return seq%5 == 0
		})
		c, err := mcspeedup.CompileSim(fms, wl)
		if err != nil {
			return nil, err
		}
		cfg := mcspeedup.SimConfig{Speedup: mcspeedup.RatTwo}
		var res mcspeedup.SimResult
		var sc mcspeedup.SimScratch
		return func() error { return c.RunInto(&res, &sc, cfg) }, nil
	})},
	// 32 sampled-ACET Monte-Carlo runs on one worker, so ns/op is
	// per core: runs/sec/core = 32e9 / ns/op.
	{"FleetThroughput", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		p := mcspeedup.FleetParams{
			Set: fms, Runs: 32, Seed: 1, Speedup: mcspeedup.RatTwo,
			Horizon: 4 * fms.MaxPeriod(), Workers: 1,
		}
		return func() error {
			_, err := mcspeedup.RunFleet(p)
			return err
		}, nil
	})},
	// One single-parameter C(HI) edit plus the delta re-analysis it
	// triggers, against AnalyzeColdFMS. The session persists across
	// iterations, which is the point of the incremental path; the edit
	// alternates between two valid values so every iteration changes
	// the set.
	{"SessionDeltaEditFMS", onFMS(func(fms mcspeedup.Set) (func() error, error) {
		up, down, err := deltaEdits(fms)
		if err != nil {
			return nil, err
		}
		sess, err := mcspeedup.NewAnalysisSession(fms, mcspeedup.RatTwo)
		if err != nil {
			return nil, err
		}
		if _, _, err := sess.Report(); err != nil { // absorb the cold analysis
			return nil, err
		}
		flip := false
		return func() error {
			e := down
			if flip {
				e = up
			}
			flip = !flip
			if err := sess.Apply(e); err != nil {
				return err
			}
			_, _, err := sess.Report()
			return err
		}, nil
	})},
}

// FMS is the §VI.A flight-management set degraded by y = 2 and
// minimally prepared, the input of every *FMS row.
func FMS() (mcspeedup.Set, error) {
	set, err := mcspeedup.FMSTasks(mcspeedup.RatTwo)
	if err != nil {
		return nil, err
	}
	if set, err = set.DegradeLO(mcspeedup.RatTwo); err != nil {
		return nil, err
	}
	_, prepared, err := mcspeedup.MinimalX(set)
	return prepared, err
}

// onFMS adapts an operation over the prepared FMS set into a Setup.
func onFMS(setup func(fms mcspeedup.Set) (func() error, error)) func() (func() error, error) {
	return func() (func() error, error) {
		fms, err := FMS()
		if err != nil {
			return nil, err
		}
		return setup(fms)
	}
}

// designSearchSet is the synthetic set of the MinimalY and TuneDeadlines
// rows: a generator set at seed 77 and u = 0.7, redrawn until the LO
// mode is feasible for some x, minimally prepared.
func designSearchSet() mcspeedup.Set {
	g := mcspeedup.DefaultGenerator()
	rnd := rand.New(rand.NewSource(77))
	for {
		set := g.MustSet(rnd, 0.7)
		if _, prepared, err := mcspeedup.MinimalX(set); err == nil {
			return prepared
		}
	}
}

// deltaEdits picks a HI task whose C(HI) can be lowered by one without
// violating C(LO) <= C(HI) and returns the two alternating
// single-parameter edits of SessionDeltaEditFMS.
func deltaEdits(set mcspeedup.Set) (up, down mcspeedup.Edit, err error) {
	for _, tk := range set {
		if tk.Crit == mcspeedup.HI && tk.WCET[mcspeedup.HI] > tk.WCET[mcspeedup.LO] {
			c := tk.WCET[mcspeedup.HI]
			return mcspeedup.SetParam(tk.Name, mcspeedup.ParamCHI, c),
				mcspeedup.SetParam(tk.Name, mcspeedup.ParamCHI, c-1), nil
		}
	}
	return up, down, errors.New("no HI task with C(HI) > C(LO)")
}
