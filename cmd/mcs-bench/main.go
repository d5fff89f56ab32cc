// Command mcs-bench measures the analysis engine's steady-state
// performance and writes BENCH_core.json, tracked at the repository root
// (see docs/PERF.md). It runs every row of internal/benchcases under
// testing.Benchmark — so ns/op, B/op, and allocs/op carry the exact
// semantics of `go test -bench` — records the examined-event and jump
// counters of the three exact FMS walks, and times one run of the
// Fig.-5 design-space sweep as an end-to-end wall-clock probe.
//
// Usage:
//
//	mcs-bench [-out BENCH_core.json] [-grid 9] [-workers 0]
//	          [-vetroot .] [-compare BENCH_core.json]
//	          [-cpuprofile bench.pprof]
//
// Regenerate the checked-in file with scripts/bench_core.sh.
//
// -compare diffs the fresh run against a baseline BENCH_core.json and
// exits nonzero on a regression of a machine-independent counter: any
// allocs/op increase, or any increase of an fmsEvents counter. ns/op
// depends on the host, so its drift is logged and never fails the
// comparison. The baseline is read before anything is written, so -out
// may name the same file.
//
// -cpuprofile writes a pprof CPU profile covering the benchmark loops
// and the Fig.-5 sweep; docs/PERF.md has a "reading the profile"
// walkthrough.
//
// -vetroot also times a full mcs-vet module sweep, cold into a fresh
// fact cache and warm replaying from it, as the vetWallTime row.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mcspeedup"
	"mcspeedup/internal/benchcases"
	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/suite"
)

// benchDoc is the BENCH_core.json layout. GoMaxProcs and CPUModel
// qualify the machine the ns/op numbers came from; both are omitempty
// so documents written before they existed re-marshal unchanged.
type benchDoc struct {
	GeneratedAt string       `json:"generatedAt"`
	GoVersion   string       `json:"goVersion"`
	NumCPU      int          `json:"numCPU"`
	GoMaxProcs  int          `json:"gomaxprocs,omitempty"`
	CPUModel    string       `json:"cpuModel,omitempty"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	FMSEvents   *eventsEntry `json:"fmsEvents,omitempty"`
	Fig5        fig5Entry    `json:"fig5Sweep"`
	VetWallTime *vetEntry    `json:"vetWallTime,omitempty"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

type fig5Entry struct {
	Grid    int     `json:"grid"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
}

// vetEntry is one mcs-vet module sweep: cold against a fresh fact
// cache, then warm replaying from it. The cold/warm ratio is the fact
// cache's value; packages and cache hits pin that the warm run really
// replayed everything.
type vetEntry struct {
	Packages      int     `json:"packages"`
	ColdSeconds   float64 `json:"coldSeconds"`
	WarmSeconds   float64 `json:"warmSeconds"`
	WarmCacheHits int     `json:"warmCacheHits"`
}

// eventsEntry records how many demand events each exact FMS analysis
// examined, plus its bulk-skip count. The counters are
// machine-independent: they count the algorithmic work the pruning of
// docs/PERF.md removes.
type eventsEntry struct {
	SpeedupExamined  int `json:"speedupExamined"`
	SpeedupJumps     int `json:"speedupJumps"`
	ResetExamined    int `json:"resetExamined"`
	ResetJumps       int `json:"resetJumps"`
	SpeedForExamined int `json:"speedForResetExamined"`
	SpeedForJumps    int `json:"speedForResetJumps"`
}

// fmsEventCounts runs the three exact FMS analyses and collects their
// event counters.
func fmsEventCounts() (*eventsEntry, error) {
	fms, err := benchcases.FMS()
	if err != nil {
		return nil, err
	}
	sp, err := mcspeedup.MinSpeedup(fms)
	if err != nil {
		return nil, err
	}
	rr, err := mcspeedup.ResetTime(fms, mcspeedup.RatTwo)
	if err != nil {
		return nil, err
	}
	sr, err := mcspeedup.MinSpeedForReset(fms, 50_000)
	if err != nil {
		return nil, err
	}
	e := &eventsEntry{
		SpeedupExamined: sp.Events, SpeedupJumps: sp.Jumps,
		ResetExamined: rr.Events, ResetJumps: rr.Jumps,
		SpeedForExamined: sr.Events, SpeedForJumps: sr.Jumps,
	}
	log.Printf("FMS events examined: speedup %d (%d jumps), reset %d (%d jumps), speed-for-reset %d (%d jumps)",
		e.SpeedupExamined, e.SpeedupJumps, e.ResetExamined, e.ResetJumps, e.SpeedForExamined, e.SpeedForJumps)
	return e, nil
}

// cpuModel returns the "model name" of the first processor entry in
// /proc/cpuinfo, or "" where that interface does not exist (non-Linux
// hosts). The field is informational; an empty value is omitted from
// the JSON rather than guessed at.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// loadBaseline reads the BENCH_core.json document at path.
func loadBaseline(path string) (benchDoc, error) {
	var base benchDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s is not a BENCH_core.json document: %v", path, err)
	}
	return base, nil
}

// compareBaseline diffs a fresh document against the baseline. Only the
// machine-independent counters gate: any allocs/op increase and any
// increase of an fmsEvents counter is a regression. ns/op drift is
// logged whatever its size. Rows present on only one side, and event
// counters the baseline lacks, are reported informationally.
func compareBaseline(base, fresh benchDoc) error {
	baseline := make(map[string]benchEntry, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var failures []string
	for _, e := range fresh.Benchmarks {
		b, ok := baseline[e.Name]
		if !ok {
			log.Printf("compare: %-28s new benchmark (no baseline entry)", e.Name)
			continue
		}
		delete(baseline, e.Name)
		if e.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d -> %d",
				e.Name, b.AllocsPerOp, e.AllocsPerOp))
			continue
		}
		var drift float64
		if b.NsPerOp > 0 {
			drift = (e.NsPerOp/b.NsPerOp - 1) * 100
		}
		log.Printf("compare: %-28s ok (allocs/op %d -> %d; ns/op %+.1f%%, not gated)",
			e.Name, b.AllocsPerOp, e.AllocsPerOp, drift)
	}
	for name := range baseline {
		log.Printf("compare: %-28s only in baseline (dropped?)", name)
	}
	switch {
	case fresh.FMSEvents == nil:
	case base.FMSEvents == nil:
		log.Printf("compare: fmsEvents new (no baseline entry)")
	default:
		b, e := base.FMSEvents, fresh.FMSEvents
		for _, c := range []struct {
			name        string
			base, fresh int
		}{
			{"speedupExamined", b.SpeedupExamined, e.SpeedupExamined},
			{"speedupJumps", b.SpeedupJumps, e.SpeedupJumps},
			{"resetExamined", b.ResetExamined, e.ResetExamined},
			{"resetJumps", b.ResetJumps, e.ResetJumps},
			{"speedForResetExamined", b.SpeedForExamined, e.SpeedForExamined},
			{"speedForResetJumps", b.SpeedForJumps, e.SpeedForJumps},
		} {
			if c.fresh > c.base {
				failures = append(failures, fmt.Sprintf("fmsEvents.%s: %d -> %d", c.name, c.base, c.fresh))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// measureVet times a full mcs-vet module sweep over root, cold into a
// fresh fact cache and warm replaying from it. Outside a module
// checkout (no go.mod at root) the measurement is skipped.
func measureVet(root string) *vetEntry {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		log.Printf("vet wall time: skipped (%v)", err)
		return nil
	}
	cacheDir, err := os.MkdirTemp("", "mcsvet-bench-")
	if err != nil {
		log.Printf("vet wall time: skipped (%v)", err)
		return nil
	}
	defer os.RemoveAll(cacheDir)
	opts := lint.ModuleOptions{CacheDir: cacheDir}

	start := time.Now()
	cold, err := lint.RunModule(root, suite.Analyzers, opts)
	if err != nil {
		log.Printf("vet wall time: skipped (%v)", err)
		return nil
	}
	coldSec := time.Since(start).Seconds()

	start = time.Now()
	warm, err := lint.RunModule(root, suite.Analyzers, opts)
	if err != nil {
		log.Printf("vet wall time: skipped (%v)", err)
		return nil
	}
	warmSec := time.Since(start).Seconds()

	e := &vetEntry{
		Packages:      len(cold.Packages),
		ColdSeconds:   coldSec,
		WarmSeconds:   warmSec,
		WarmCacheHits: warm.CacheHits,
	}
	log.Printf("vet wall time: %d packages, cold %.3fs, warm %.3fs (%d cache hits)",
		e.Packages, e.ColdSeconds, e.WarmSeconds, e.WarmCacheHits)
	return e
}

// measure sets c up and runs its operation under testing.Benchmark with
// allocation reporting.
func measure(c benchcases.Case) (benchEntry, error) {
	op, err := c.Setup()
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				opErr = err
				return
			}
		}
	})
	if opErr != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", c.Name, opErr)
	}
	e := benchEntry{
		Name:        c.Name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	log.Printf("%-28s %12.0f ns/op %8d B/op %6d allocs/op (%d iters)",
		e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Iterations)
	return e, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcs-bench: ")
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcs-bench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "BENCH_core.json", "output path (- = stdout)")
		grid       = fs.Int("grid", 9, "Fig.-5 sweep grid resolution")
		workers    = fs.Int("workers", 0, "Fig.-5 sweep workers (0 = all cores)")
		vetRoot    = fs.String("vetroot", ".", "module root for the vet wall-time sweep ('' = skip)")
		compare    = fs.String("compare", "", "baseline BENCH_core.json to diff against; exit nonzero on an allocs/op or fmsEvents increase")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var base benchDoc
	if *compare != "" {
		var err error
		if base, err = loadBaseline(*compare); err != nil {
			return err
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		// The profile covers the benchmark loops and the Fig.-5 sweep —
		// the analysis hot paths — not the vet sweep or file writes.
		defer pprof.StopCPUProfile()
	}

	doc := benchDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
	}
	for _, c := range benchcases.Cases {
		e, err := measure(c)
		if err != nil {
			return err
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	var err error
	if doc.FMSEvents, err = fmsEventCounts(); err != nil {
		return err
	}

	start := time.Now()
	if _, err := mcspeedup.ExperimentFig5(*grid, *workers); err != nil {
		return err
	}
	doc.Fig5 = fig5Entry{Grid: *grid, Workers: *workers, Seconds: time.Since(start).Seconds()}
	log.Printf("fig5 sweep (grid %d, workers %d): %.3fs", *grid, *workers, doc.Fig5.Seconds)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		log.Printf("wrote CPU profile to %s", *cpuprofile)
	}

	if *vetRoot != "" {
		doc.VetWallTime = measureVet(*vetRoot)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		fmt.Print(string(data))
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", *out)
	}

	if *compare != "" {
		if err := compareBaseline(base, doc); err != nil {
			return fmt.Errorf("compare against %s: %w", *compare, err)
		}
		log.Printf("compare: no regressions vs %s", *compare)
	}
	return nil
}
