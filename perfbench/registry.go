package main

import (
	"encoding/json"
	"time"
)

// runSeconds is how long one run measures by default (BENCHMARK.json's
// run_seconds).
const runSeconds = 25

// MetricDef names a metric the benchmark reports. Bound, for end-to-end
// metrics only, is the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them; README.md says what
// each means on each workload. The bounds are wide because the CPU-bound
// metrics swing by up to 30% between runs a few minutes apart on the
// shared 2-vCPU host the benchmark was built on.
var endToEnd = []MetricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"rps_at_slo", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []MetricDef{
	{Name: "task.parse_us", Unit: "us", Better: "lower"},
	{Name: "task.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "task.util_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "dbf.plan_compile_us", Unit: "us", Better: "lower"},
	{Name: "dbf.setstate_new_ms", Unit: "ms", Better: "lower"},
	{Name: "dbf.setstate_apply_us", Unit: "us", Better: "lower"},
	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.lo_test_ms", Unit: "ms", Better: "lower"},
	{Name: "core.speedup_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reset_ms", Unit: "ms", Better: "lower"},
	{Name: "core.closed_form_us", Unit: "us", Better: "lower"},
	{Name: "core.report_encode_us", Unit: "us", Better: "lower"},
	{Name: "core.session_apply_us", Unit: "us", Better: "lower"},
	{Name: "core.session_report_us", Unit: "us", Better: "lower"},
	{Name: "core.minimal_y_ms", Unit: "ms", Better: "lower"},
	{Name: "core.feasible_x_ms", Unit: "ms", Better: "lower"},
	{Name: "core.tune_deadlines_ms", Unit: "ms", Better: "lower"},
	{Name: "core.speedup_events", Unit: "count", Better: "lower"},
	{Name: "core.speedup_jumps", Unit: "count", Better: "lower"},
	{Name: "core.reset_events", Unit: "count", Better: "lower"},
	{Name: "core.reset_jumps", Unit: "count", Better: "lower"},
	{Name: "core.session_delta_share", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_analyze", Unit: "count", Better: "lower"},
	{Name: "server.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.transport_gap_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cluster.coalesce_dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "par.pool_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "par.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.child_coverage", Unit: "ratio", Better: "higher"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
}

// Workload is one named set of inputs. Why is recorded in
// BENCHMARK.json; README.md gives the longer reasoning.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// SLO is the latency limit rps_at_slo counts against.
	SLO time.Duration `json:"-"`
	run func(runConfig) (*Result, error)
}

var workloads = []Workload{
	{
		Name: "serve-zipf",
		Why:  "open loop, 2 keep-alive conns, one mcs-serve: Zipf over 4096 sets (n 8-64) vs the 1024-entry cache, 1 body in 5 reordered; frozen ladder " + ladderString(),
		SLO:  10 * time.Millisecond,
		run:  runServeZipf,
	},
	{
		Name: "analyze-scale",
		Why:  "in-process closed loop, parse+AnalyzeSet(s=2)+encode over n 10/100/1000 x harmonic/log-uniform/coprime periods: exact sums and walks, no serving layers",
		SLO:  50 * time.Millisecond,
		run:  runAnalyzeScale,
	},
	{
		Name: "design-loop",
		Why:  "in-process closed loop of rounds of one edit+Report per session (FMS, 2 each n 100/1000 harmonic/coprime), design searches every 10th round: the incremental write path",
		SLO:  100 * time.Millisecond,
		run:  runDesignLoop,
	},
}

func lookupWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// manifest renders BENCHMARK.json from the registry, so a metric or
// workload name means one thing everywhere.
func manifest() ([]byte, error) {
	type perLayerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]perLayerDef, len(perLayer))
	for i, m := range perLayer {
		pl[i] = perLayerDef{m.Name, m.Unit, m.Better}
	}
	out, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []Workload    `json:"workloads"`
		EndToEnd   []MetricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   pl,
	}, "", "  ")
	return append(out, '\n'), err
}
