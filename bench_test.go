package mcspeedup_test

// One benchmark per table/figure of the paper's evaluation (the bench
// harness of DESIGN.md §6), plus micro-benchmarks of the core analyses
// the experiments are built from. Figure benches run scaled-down
// configurations so `go test -bench=.` completes in seconds; the full-
// scale runs are produced by cmd/mcs-experiments.

import (
	"fmt"
	"math/rand"
	"testing"

	"mcspeedup"
	"mcspeedup/internal/examplesets"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ExperimentTable1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ExperimentFig1(30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ExperimentFig3(30, 20, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ExperimentFig4(9, 13, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ExperimentFig5(5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := mcspeedup.ExperimentFig6(mcspeedup.Fig6Config{
			SetsPerPoint: 10,
			UBounds:      []float64{0.5, 0.7, 0.9},
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := mcspeedup.ExperimentFig7(mcspeedup.Fig7Config{
			SetsPerPoint: 5,
			Grid:         []float64{0.3, 0.6, 0.85},
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := mcspeedup.ExperimentAblation(mcspeedup.AblationConfig{
			SetsPerPoint: 10,
			UBounds:      []float64{0.5, 0.7, 0.9},
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the analyses underlying every figure ---

func BenchmarkMinSpeedForReset(b *testing.B) {
	set := benchSet(b, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.MinSpeedForReset(set, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

// designSearchSet is the synthetic set of the MinimalY and
// TuneDeadlines rows, the same one cmd/mcs-bench measures under those
// names: a generator set at seed 77 and u = 0.7, redrawn until the LO
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

func BenchmarkMinimalY(b *testing.B) {
	prepared := designSearchSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mcspeedup.MinimalY(prepared, mcspeedup.RatTwo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneDeadlines(b *testing.B) {
	set := designSearchSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.TuneDeadlines(set, mcspeedup.RatZero); err != nil {
			b.Fatal(err)
		}
	}
}

// coprimeSet is the large-n set of the AnalyzeColdCoprime1000 row, the
// same one cmd/mcs-bench measures under that name: 1000 tasks with
// distinct prime periods at U(LO) ≈ 0.9, minimally prepared.
func coprimeSet(b *testing.B) mcspeedup.Set {
	b.Helper()
	_, prepared, err := mcspeedup.MinimalX(examplesets.Coprime(1000))
	if err != nil {
		b.Fatal(err)
	}
	return prepared
}

// BenchmarkAnalyzeColdCoprime1000 is a full cold Analyze whose cost is
// the exact sums: their denominators are products of 1000 primes.
func BenchmarkAnalyzeColdCoprime1000(b *testing.B) {
	set := coprimeSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.AnalyzeSet(set, mcspeedup.RatTwo); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSet(b *testing.B, uBound float64) mcspeedup.Set {
	b.Helper()
	g := mcspeedup.DefaultGenerator()
	set := g.MustSet(rand.New(rand.NewSource(99)), uBound)
	set, err := set.DegradeLO(mcspeedup.RatTwo)
	if err != nil {
		b.Fatal(err)
	}
	_, prepared, err := mcspeedup.MinimalX(set)
	if err != nil {
		b.Fatal(err)
	}
	return prepared
}

func BenchmarkMinSpeedupTableI(b *testing.B) {
	set := mcspeedup.TableISet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.MinSpeedup(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinSpeedupSynthetic(b *testing.B) {
	set := benchSet(b, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.MinSpeedup(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinSpeedupFMS(b *testing.B) {
	set, err := mcspeedup.FMSTasks(mcspeedup.RatTwo)
	if err != nil {
		b.Fatal(err)
	}
	set, err = set.DegradeLO(mcspeedup.RatTwo)
	if err != nil {
		b.Fatal(err)
	}
	_, prepared, err := mcspeedup.MinimalX(set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.MinSpeedup(prepared); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResetTimeSynthetic(b *testing.B) {
	set := benchSet(b, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ResetTime(set, mcspeedup.RatTwo); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSet100 builds a deterministic 100-task set (60 HI + 40 LO,
// harmonic periods so the hyperperiod stays small and the analyses
// terminate exactly) degraded and prepared the same way the experiment
// drivers prepare their corpora. Large n stresses the event heap and
// per-event bookkeeping of the walker-based analyses.
func benchSet100(b *testing.B) mcspeedup.Set {
	b.Helper()
	var set mcspeedup.Set
	for i := 0; i < 60; i++ {
		period := mcspeedup.Time(400 << (i % 3)) // 400, 800, 1600
		set = append(set, mcspeedup.NewImplicitHITask(fmt.Sprintf("h%02d", i), period, 1, 2))
	}
	for i := 0; i < 40; i++ {
		period := mcspeedup.Time(300 << (i % 3)) // 300, 600, 1200
		set = append(set, mcspeedup.NewImplicitLOTask(fmt.Sprintf("l%02d", i), period, 1))
	}
	degraded, err := set.DegradeLO(mcspeedup.RatTwo)
	if err != nil {
		b.Fatal(err)
	}
	_, prepared, err := mcspeedup.MinimalX(degraded)
	if err != nil {
		b.Fatal(err)
	}
	return prepared
}

func BenchmarkMinSpeedup100Tasks(b *testing.B) {
	set := benchSet100(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.MinSpeedup(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResetTime100Tasks(b *testing.B) {
	set := benchSet100(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.ResetTime(set, mcspeedup.RatTwo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulableLO(b *testing.B) {
	set := benchSet(b, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.SchedulableLO(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimalX(b *testing.B) {
	g := mcspeedup.DefaultGenerator()
	set := g.MustSet(rand.New(rand.NewSource(99)), 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mcspeedup.MinimalX(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosedFormSpeedup(b *testing.B) {
	set := benchSet(b, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mcspeedup.ClosedFormSpeedup(set)
	}
}

func BenchmarkEDFVDAnalyze(b *testing.B) {
	g := mcspeedup.DefaultGenerator()
	set := g.MustSet(rand.New(rand.NewSource(99)), 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcspeedup.EDFVDAnalyze(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateOverrunBursts(b *testing.B) {
	set := mcspeedup.TableISet()
	w := mcspeedup.SynchronousPeriodic(set, 1000, mcspeedup.AlwaysOverrun)
	cfg := mcspeedup.SimConfig{Speedup: mcspeedup.RatTwo}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mcspeedup.Simulate(set, w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Misses) != 0 {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkGenerateTaskSet(b *testing.B) {
	g := mcspeedup.DefaultGenerator()
	rnd := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MustSet(rnd, 0.8)
	}
}
