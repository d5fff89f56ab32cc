package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mcspeedup"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/stats"
)

// setupRepeats is how many times a run sets up the program under test;
// setup_s is the median. A set-up takes 1–3 ms on a 2-vCPU VM, and
// process start jitters by as much, so it takes many.
const setupRepeats = 21

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary adds latency_p50_ms and latency_p99_ms over lat.
func latencySummary(res *Result, lat []time.Duration, what string) {
	vals := make([]float64, len(lat))
	for i, d := range lat {
		vals[i] = ms(d)
	}
	base := fmt.Sprintf("%s, %d beyond p99", what, len(lat)/100)
	res.set("latency_p50_ms", stats.Quantile(vals, 0.5), len(vals), what)
	res.set("latency_p99_ms", stats.Quantile(vals, 0.99), len(vals), base)
}

// closedLoopSummary reports the end-to-end metrics of a closed loop with
// one caller: throughput over the busy time of the timed operations,
// latency percentiles, and the throughput of operations that met slo.
func closedLoopSummary(res *Result, lat []time.Duration, slo time.Duration, what string) {
	var busy time.Duration
	met := 0
	for _, d := range lat {
		busy += d
		if d <= slo {
			met++
		}
	}
	res.set("ops_per_s", float64(len(lat))/busy.Seconds(), len(lat), what+" over their busy time")
	res.set("rps_at_slo", float64(met)/busy.Seconds(), met, fmt.Sprintf("%s within %v (%d of %d)", what, slo, met, len(lat)))
	latencySummary(res, lat, what)
	vals := make([]float64, len(lat))
	for i, d := range lat {
		vals[i] = ms(d)
	}
	res.note("%s deciles: %s", what, deciles(vals))
}

func median(vals []float64) float64 { return stats.Quantile(vals, 0.5) }

// deciles renders p10 … p90 and the maximum, in ms.
func deciles(vals []float64) string {
	var b strings.Builder
	for q := 1; q <= 10; q++ {
		fmt.Fprintf(&b, " %.3g", stats.Quantile(vals, float64(q)/10))
	}
	return b.String()
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/%d/status", pid)
}

// coldStartSeconds is the in-process workloads' set-up: the median wall
// time, over setupRepeats fresh processes, from exec to the first
// analysis done. It includes process start, package initialisation and
// every first-call cost, so work a change moves into initialisation
// shows here.
func coldStartSeconds(self string) (float64, error) {
	vals := make([]float64, setupRepeats)
	for i := range vals {
		start := time.Now()
		out, err := exec.Command(self, "-cold-start").CombinedOutput()
		if err != nil {
			return 0, fmt.Errorf("cold start: %v: %s", err, out)
		}
		vals[i] = time.Since(start).Seconds()
	}
	return median(vals), nil
}

// coldStartMain is the body of a -cold-start process: analyze the FMS
// case study once.
func coldStartMain() int {
	s, err := fms.Tasks(fms.DefaultGamma)
	if err == nil {
		_, s, err = mcspeedup.MinimalX(s)
	}
	if err == nil {
		_, err = mcspeedup.AnalyzeSet(s, speedCap)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
