package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcspeedup"
	"mcspeedup/internal/core"
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/task"
)

// analyzeSpecs is the analyze-scale corpus: every n × period structure
// at U(LO) ≈ 0.9. Cells are visited round-robin, so each is timed equally
// often. The n ≤ 100 cells hold 8 sets, so that p50, which falls in
// them, does not hang on one draw; an n = 1000 coprime set takes ~2 s to
// generate, so those cells hold one.
var analyzeSpecs = func() []Spec {
	var out []Spec
	for _, n := range []int{10, 100, 1000} {
		for _, p := range []Periods{Harmonic, LogUniform, Coprime} {
			copies := 8
			if n == 1000 {
				copies = 1
			}
			out = append(out, Spec{N: n, Periods: p, U: 0.9, Copies: copies})
		}
	}
	return out
}()

// analyzeSchedule returns the corpus index of every op of a cycle: op k
// visits cell k mod cells, and a cell's sets in turn.
func analyzeSchedule(c *Corpus) []int {
	var cells [][]int
	for i := range c.Sets {
		if i == 0 || c.Specs[i] != c.Specs[i-1] {
			cells = append(cells, nil)
		}
		cells[len(cells)-1] = append(cells[len(cells)-1], i)
	}
	cycle := 1
	for _, cell := range cells {
		cycle = lcm(cycle, len(cell))
	}
	var out []int
	for k := 0; k < cycle; k++ {
		for _, cell := range cells {
			out = append(out, cell[k%len(cell)])
		}
	}
	return out
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

func runAnalyzeScale(c runConfig) (*Result, error) {
	corpus, err := NewCorpus(c.Seed, analyzeSpecs)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(corpus.Sets))
	for i, s := range corpus.Sets {
		if bodies[i], err = s.MarshalIndent(); err != nil {
			return nil, err
		}
	}
	res := newResult()
	res.note("corpus: %d sets, digest %s", len(bodies), corpus.Digest())
	sched := analyzeSchedule(corpus)
	setup, err := coldStartSeconds(c.Self)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, setupRepeats, "median fresh process start to first analysis done")

	if !c.Trace {
		lat, digest := analyzeLoop(res, bodies, sched, c.Duration)
		res.note("report digest %s", digest)
		byCell := make(map[Spec][]float64)
		for op, d := range lat {
			spec := corpus.Specs[sched[op%len(sched)]]
			byCell[spec] = append(byCell[spec], ms(d))
		}
		for _, spec := range analyzeSpecs {
			if cell := byCell[spec]; len(cell) > 0 {
				res.note("%-18v n=%-4d p50 %9.3f ms", spec, len(cell), median(cell))
			}
		}
		closedLoopSummary(res, lat, c.SLO, "parse+analyze+encode ops")
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", rss, 1, "VmHWM of the benchmark process, which hosts the analysis")
		return res, nil
	}

	// Traced run: every op untraced and then traced, back to back, for the
	// overhead; then the public parts of AnalyzeSet timed on every set.
	tr := NewTracer()
	var plain, traced []time.Duration
	ch := newAnalyzeChecker(len(bodies))
	for op, start := 0, time.Now(); time.Since(start) < c.Duration; op++ {
		i := sched[op%len(sched)]
		for _, t := range []*Tracer{nil, tr} {
			t0 := time.Now()
			out, r, err := analyzeOp(bodies[i], t, int64(op))
			d := time.Since(t0)
			if t == nil {
				plain = append(plain, d)
			} else {
				traced = append(traced, d)
			}
			ch.check(res, i, out, r, err)
		}
	}
	res.set("trace.overhead_share", overheadShare(plain, traced), len(plain), "traced over untraced time of the same ops run back to back, minus 1")
	work := analyzeParts(res, corpus.Sets, tr)
	st := tr.Stats()
	setSpan(res, st, "task.parse_us", "task.ParseSetJSON", time.Microsecond)
	setSpan(res, st, "core.analyze_ms", "core.AnalyzeSet", time.Millisecond)
	setSpan(res, st, "core.report_encode_us", "core.Report.MarshalIndent", time.Microsecond)
	setSpan(res, st, "task.fingerprint_us", "task.Set.Fingerprint", time.Microsecond)
	setSpan(res, st, "task.util_sum_ms", "task.Set.Util", time.Millisecond)
	setSpan(res, st, "dbf.plan_compile_us", "dbf.CompilePlan", time.Microsecond)
	setSpan(res, st, "core.lo_test_ms", "core.SchedulableLO", time.Millisecond)
	setSpan(res, st, "core.speedup_ms", "core.MinSpeedup", time.Millisecond)
	setSpan(res, st, "core.reset_ms", "core.ResetTime", time.Millisecond)
	setSpan(res, st, "core.closed_form_us", "core.ClosedForm", time.Microsecond)
	setCoverage(res, st["op"], "one op")
	sets := len(corpus.Sets)
	base := fmt.Sprintf("summed over the %d corpus sets", sets)
	res.set("core.speedup_events", float64(work.speedupEvents), sets, base)
	res.set("core.speedup_jumps", float64(work.speedupJumps), sets, base)
	res.set("core.reset_events", float64(work.resetEvents), sets, base)
	res.set("core.reset_jumps", float64(work.resetJumps), sets, base)
	res.set("core.allocs_per_analyze", float64(work.allocs)/float64(sets), sets, "mallocs per AnalyzeSet, mean over the corpus sets")
	return res, writeSpans(c, "analyze-scale", tr)
}

// analyzeOp is one analyze-scale operation: bytes → ParseSetJSON →
// AnalyzeSet(s=2) → MarshalIndent.
func analyzeOp(body []byte, tr *Tracer, op int64) ([]byte, core.Report, error) {
	root := tr.Begin("op", op, -1)
	defer tr.End(root)
	sp := tr.Begin("task.ParseSetJSON", op, root)
	s, err := mcspeedup.ParseSetJSON(body)
	tr.End(sp)
	if err != nil {
		return nil, core.Report{}, err
	}
	sp = tr.Begin("core.AnalyzeSet", op, root)
	r, err := mcspeedup.AnalyzeSet(s, speedCap)
	tr.End(sp)
	if err != nil {
		return nil, core.Report{}, err
	}
	sp = tr.Begin("core.Report.MarshalIndent", op, root)
	out, err := r.MarshalIndent()
	tr.End(sp)
	return out, r, err
}

// analyzeLoop runs operations over bodies in schedule order, cyclically,
// for d and returns their latencies and a digest over the report digest
// of every body.
func analyzeLoop(res *Result, bodies [][]byte, schedule []int, d time.Duration) ([]time.Duration, string) {
	ch := newAnalyzeChecker(len(bodies))
	var lat []time.Duration
	for op, start := 0, time.Now(); time.Since(start) < d; op++ {
		i := schedule[op%len(schedule)]
		t0 := time.Now()
		out, r, err := analyzeOp(bodies[i], nil, int64(op))
		lat = append(lat, time.Since(t0))
		ch.check(res, i, out, r, err)
	}
	return lat, ch.digest()
}

// analyzeChecker checks analyze-scale outputs outside the timed region:
// repeated reports of a body are byte-identical, and s_min ≤ the Lemma-6
// closed form.
type analyzeChecker struct {
	digests [][32]byte
	seen    []bool
}

func newAnalyzeChecker(n int) *analyzeChecker {
	return &analyzeChecker{digests: make([][32]byte, n), seen: make([]bool, n)}
}

func (c *analyzeChecker) check(res *Result, i int, out []byte, r core.Report, err error) {
	res.Attempted++
	switch sum := sha256.Sum256(out); {
	case err != nil:
		res.fail("analyze set %d: %v", i, err)
	case c.seen[i] && sum != c.digests[i]:
		res.fail("report of set %d changed between repeats", i)
	case r.Speedup.Speedup.Cmp(r.ClosedSpeedup) > 0:
		res.fail("set %d: s_min %v above the Lemma-6 closed form %v", i, r.Speedup.Speedup, r.ClosedSpeedup)
	default:
		c.seen[i], c.digests[i] = true, sum
	}
}

// digest hashes the report digests of every body, in corpus order.
func (c *analyzeChecker) digest() string {
	h := sha256.New()
	for _, d := range c.digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workCounts are the machine-independent counters of one pass over the
// corpus.
type workCounts struct {
	speedupEvents, speedupJumps, resetEvents, resetJumps int
	allocs                                               uint64
}

// analyzeParts times the public parts of AnalyzeSet, each on every set,
// and counts the walks' work and AnalyzeSet's allocations.
func analyzeParts(res *Result, sets []task.Set, tr *Tracer) workCounts {
	var w workCounts
	var before, after runtime.MemStats
	for i, s := range sets {
		op := int64(-1 - i)
		root := tr.Begin("parts", op, -1)
		sp := tr.Begin("task.Set.Validate", op, root)
		err := s.Validate()
		tr.End(sp)
		sp = tr.Begin("task.Set.Util", op, root)
		s.Util(task.LO)
		s.Util(task.HI)
		tr.End(sp)
		sp = tr.Begin("task.Set.Fingerprint", op, root)
		s.Fingerprint()
		tr.End(sp)
		sp = tr.Begin("dbf.CompilePlan", op, root)
		dbf.CompilePlan(s, dbf.KindDBF)
		dbf.CompilePlan(s, dbf.KindADB)
		tr.End(sp)
		sp = tr.Begin("core.SchedulableLO", op, root)
		_, err1 := core.SchedulableLO(s)
		tr.End(sp)
		sp = tr.Begin("core.MinSpeedup", op, root)
		spd, err2 := core.MinSpeedup(s)
		tr.End(sp)
		sp = tr.Begin("core.ResetTime", op, root)
		rst, err3 := core.ResetTime(s, speedCap)
		tr.End(sp)
		sp = tr.Begin("core.ClosedForm", op, root)
		core.ClosedFormSpeedup(s)
		core.ClosedFormReset(s, speedCap)
		tr.End(sp)
		tr.End(root)
		res.Attempted++
		for _, e := range []error{err, err1, err2, err3} {
			if e != nil {
				res.fail("parts of set %d: %v", i, e)
				break
			}
		}
		w.speedupEvents += spd.Events
		w.speedupJumps += spd.Jumps
		w.resetEvents += rst.Events
		w.resetJumps += rst.Jumps

		runtime.ReadMemStats(&before)
		_, err = mcspeedup.AnalyzeSet(s, speedCap)
		runtime.ReadMemStats(&after)
		if err != nil {
			res.fail("analyze set %d: %v", i, err)
		}
		w.allocs += after.Mallocs - before.Mallocs
	}
	return w
}

// overheadShare compares the same leading ops of an untraced and a
// traced pass.
func overheadShare(plain, traced []time.Duration) float64 {
	n := min(len(plain), len(traced))
	var a, b time.Duration
	for i := 0; i < n; i++ {
		a += plain[i]
		b += traced[i]
	}
	return b.Seconds()/a.Seconds() - 1
}

// setCoverage reports how much of the root spans' time their child spans
// cover, overall and for the worst single span.
func setCoverage(res *Result, root SpanStats, what string) {
	res.set("trace.child_coverage", root.Coverage, root.Count,
		fmt.Sprintf("share of all root spans' time their children cover; lowest for %s %.4f", what, root.MinCoverage))
}

// setSpan reports the mean self time of the spans named span in unit.
func setSpan(res *Result, st map[string]SpanStats, metric, span string, unit time.Duration) {
	s := st[span]
	res.set(metric, s.SelfNS/float64(unit), s.Count, "mean self time of "+span+" spans")
}

func writeSpans(c runConfig, workload string, tr *Tracer) error {
	return tr.WriteFile(fmt.Sprintf("%s/%s-seed%d.spans.jsonl", c.OutDir, workload, c.Seed))
}
