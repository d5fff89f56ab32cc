// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks every output it times, and prints each
// metric with its unit; the last line of standard output is the result
// as one JSON object. The workloads, metrics and bounds are listed in
// registry.go, which also renders BENCHMARK.json (-manifest). README.md
// explains the workloads and maps each layer metric to the end-to-end
// metric it should move.
//
// Usage (run.py builds the binaries and forwards its arguments):
//
//	python3 perfbench/run.py --workload analyze-scale --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, whose spans are also
// written to .bench_out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	SLO      time.Duration
	// OutDir receives span files.
	OutDir string
	// ServeBin is the mcs-serve binary serve-zipf starts.
	ServeBin string
	// Self is this binary, re-executed to time cold starts.
	Self string
}

// Metric is one reported value. Samples and Base are printed in the
// table so every percentile states its sample count and every ratio its
// denominator.
type Metric struct {
	Value   float64
	Unit    string
	Samples int
	Base    string
}

// Result is one run's outcome.
type Result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]Metric
	// Notes are printed under the table (corpus digests, check counts).
	Notes []string
}

func newResult() *Result { return &Result{Correct: true, Metrics: make(map[string]Metric)} }

func (r *Result) set(name string, value float64, samples int, base string) {
	r.Metrics[name] = Metric{Value: value, Unit: unitOf(name), Samples: samples, Base: base}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check. Checks run outside the timed
// region; each failure counts as a failed operation.
func (r *Result) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	r.note("CHECK FAILED: "+format, args...)
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("perfbench: unregistered metric " + name)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		serveBin  = flag.String("serve-bin", filepath.Join(".bench_build", "bin", "mcs-serve"), "mcs-serve binary")
		outDir    = flag.String("out", ".bench_out", "directory for span files")
		doMan     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		coldStart = flag.Bool("cold-start", false, "internal: analyze one set and exit (times analyze-scale set-up)")
	)
	flag.Parse()
	if *coldStart {
		return coldStartMain()
	}
	if *doMan {
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		os.Stdout.Write(out)
		return 0
	}
	w, ok := lookupWorkload(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		SLO:      w.SLO,
		OutDir:   *outDir,
		ServeBin: *serveBin,
		Self:     self,
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if res.Attempted > 0 {
		res.set("error_rate", float64(res.Failed)/float64(res.Attempted), res.Attempted, "failed over attempted operations")
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.set(m.Name, 0, 0, "layer not exercised by this workload")
			}
		}
	}
	return printResult(w.Name, cfg, res, defs)
}

func printResult(name string, cfg runConfig, res *Result, defs []MetricDef) int {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %t\n", name, cfg.Seed, cfg.Duration.Seconds(), cfg.Trace)
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", name, d.Name)
			return 1
		}
		fmt.Printf("  %-30s %14.6g %-6s n=%-8d %s\n", d.Name, m.Value, m.Unit, m.Samples, m.Base)
		metrics[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	var extra []string
	for k := range res.Metrics {
		if !hasMetric(defs, k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		m := res.Metrics[k]
		fmt.Printf("  (%s) %-25s %14.6g %-6s n=%-8d %s\n", "extra", k, m.Value, m.Unit, m.Samples, m.Base)
	}
	for _, n := range res.Notes {
		fmt.Println("  " + n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func hasMetric(defs []MetricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
