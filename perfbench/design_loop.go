package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"mcspeedup"
	"mcspeedup/internal/core"
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/stats"
	"mcspeedup/internal/task"
)

const (
	// searchEvery makes every searchEvery-th round run design searches.
	searchEvery = 10
	// checkEvery and maxChecks: every checkEvery-th report of a session
	// is compared with a cold AnalyzeSet, at most maxChecks per session
	// and pass (a cold coprime n = 1000 analysis costs ~0.6 s).
	checkEvery = 64
	maxChecks  = 3
	// designSetups is how often a run opens the sessions for setup_s.
	designSetups = 3
)

// designSpecs are the generated sessions, two per cell so a round's cost
// does not hang on one draw; the FMS case study is the first session.
// Design searches run only on sessions with n ≤ 100.
var designSpecs = []Spec{
	{N: 100, Periods: Harmonic, U: 0.9, Copies: 2},
	{N: 100, Periods: Coprime, U: 0.9, Copies: 2},
	{N: 1000, Periods: Harmonic, U: 0.9, Copies: 2},
	{N: 1000, Periods: Coprime, U: 0.9, Copies: 2},
}

// toggle is one edit a session flips back and forth between the base
// value ("off") and another ("on"). MinimalX leaves every base set at the
// edge of LO-mode schedulability, so the "on" sides never add LO-mode
// demand: a larger C(HI) (HI mode only), a longer LO period, or one of
// the two small extra LO tasks removed. The state with every C(HI)
// toggle on and nothing else therefore bounds the demand of every state
// the script reaches, and the design searches are validated there and at
// the base.
type toggle struct {
	name    string
	param   int // toggleCHI, toggleT or toggleTask
	off, on task.Time
	extra   task.Task
	state   bool
}

const (
	toggleCHI = iota
	toggleT
	toggleTask
)

// edit returns the edit that switches the toggle on or off.
func (t *toggle) edit(on bool) task.Edit {
	v := t.off
	if on {
		v = t.on
	}
	switch t.param {
	case toggleCHI:
		return task.SetParam(t.name, task.ParamCHI, v)
	case toggleT:
		return task.Edit{Op: task.OpSet, Name: t.name, Params: []task.ParamValue{
			{Param: task.ParamTLO, Value: v}, {Param: task.ParamTHI, Value: v},
			{Param: task.ParamDLO, Value: v}, {Param: task.ParamDHI, Value: v}}}
	}
	if on {
		return task.Edit{Op: task.OpRemove, Name: t.name}
	}
	extra := t.extra
	return task.Edit{Op: task.OpAdd, Task: &extra}
}

// designSession is one session of the script with its base set.
type designSession struct {
	label   string
	base    task.Set
	toggles []toggle
	search  bool

	sess   *core.Session
	st     *dbf.SetState // traced runs only: the state layer timed alone
	edits  int
	checks int
}

// worst returns base with every C(HI) toggle on.
func (d *designSession) worst() (task.Set, error) {
	s := d.base.Clone()
	for i := range d.toggles {
		if d.toggles[i].param != toggleCHI {
			continue
		}
		var err error
		if s, err = s.ApplyEdits(d.toggles[i].edit(true)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// extraTasks are the two LO tasks at 1% utilization each that every
// design set carries and the script removes and re-adds.
func extraTasks(rnd *rand.Rand) task.Set {
	var out task.Set
	for _, name := range []string{"extra0", "extra1"} {
		period := task.Time(periodMin << rnd.Intn(4))
		out = append(out, task.NewImplicitLO(name, period, period/100))
	}
	return out
}

// pickToggles chooses four C(HI) toggles, four LO-period toggles and the
// two extra tasks' add/remove toggles. A period edit of a harmonic set
// doubles the period, which keeps the set harmonic; elsewhere it adds
// 10%.
func pickToggles(rnd *rand.Rand, s task.Set, harmonic bool) []toggle {
	var out []toggle
	var hi, lo int
	for _, i := range rnd.Perm(len(s)) {
		t := &s[i]
		switch {
		case t.Name == "extra0" || t.Name == "extra1":
			out = append(out, toggle{name: t.Name, param: toggleTask, extra: *t})
		case t.Crit == task.HI && hi < 4 && t.WCET[task.HI] < t.Deadline[task.HI]:
			step := max(1, t.WCET[task.HI]/10)
			out = append(out, toggle{name: t.Name, param: toggleCHI, off: t.WCET[task.HI],
				on: min(t.Deadline[task.HI], t.WCET[task.HI]+step)})
			hi++
		case t.Crit == task.LO && lo < 4:
			on := t.Period[task.LO] + t.Period[task.LO]/10
			if harmonic {
				on = 2 * t.Period[task.LO]
			}
			out = append(out, toggle{name: t.Name, param: toggleT, off: t.Period[task.LO], on: on})
			lo++
		}
	}
	return out
}

// newDesignSessions builds the script's sessions from seed: FMS plus
// designSpecs, each with the two extra tasks, transformed by MinimalX,
// and with toggles validated so no step fails.
func newDesignSessions(seed int64) ([]*designSession, error) {
	specs := []Spec{{}} // the FMS session
	for _, spec := range designSpecs {
		for k := 0; k < spec.Copies; k++ {
			specs = append(specs, spec)
		}
	}
	var out []*designSession
	for i, spec := range specs {
		rnd := gen.SubRand(seed, 1000+i, 0)
		var d *designSession
		for draw := 0; d == nil && draw < maxDraws; draw++ {
			raw, err := fms.Tasks(fms.DefaultGamma)
			label := "fms"
			if i > 0 {
				label = fmt.Sprintf("%v#%d", spec, len(out))
				raw = drawSet(rnd, spec)
			}
			if err != nil {
				return nil, err
			}
			_, s, err := core.MinimalX(append(raw, extraTasks(rnd)...))
			if err != nil {
				continue
			}
			cand := &designSession{label: label, base: s, toggles: pickToggles(rnd, s, i > 0 && spec.Periods == Harmonic), search: len(s) <= 102}
			w, err := cand.worst()
			if err != nil || (cand.search && (searchesFail(s) || searchesFail(w))) {
				continue
			}
			d = cand
		}
		if d == nil {
			return nil, fmt.Errorf("design session %d: no valid set in %d draws", i, maxDraws)
		}
		out = append(out, d)
	}
	return out, nil
}

// open starts fresh sessions with their first, cold reports. With tr set
// it also builds each session's stand-alone dbf.SetState.
func openSessions(ds []*designSession, tr *Tracer) error {
	for i, d := range ds {
		for j := range d.toggles {
			d.toggles[j].state = false
		}
		d.edits, d.checks = 0, 0
		sess, err := core.NewSession(d.base, speedCap)
		if err != nil {
			return fmt.Errorf("session %s: %w", d.label, err)
		}
		if _, _, err := sess.Report(); err != nil {
			return fmt.Errorf("session %s: %w", d.label, err)
		}
		d.sess = sess
		if tr != nil {
			sp := tr.Begin("dbf.NewSetState", int64(-1-i), -1)
			d.st, err = dbf.NewSetState(d.base)
			tr.End(sp)
			if err != nil {
				return fmt.Errorf("session %s: %w", d.label, err)
			}
		}
	}
	return nil
}

func runDesignLoop(c runConfig) (*Result, error) {
	ds, err := newDesignSessions(c.Seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	for _, d := range ds {
		res.note("session %-15s n=%-5d fingerprint %.16s", d.label, len(d.base), d.base.Fingerprint())
	}
	if !c.Trace {
		setups := make([]float64, designSetups)
		for i := range setups {
			start := time.Now()
			if err := openSessions(ds, nil); err != nil {
				return nil, err
			}
			setups[i] = time.Since(start).Seconds()
		}
		res.set("setup_s", median(setups), len(setups), "median time to open every session and its first cold report")
		lat := designLoop(res, ds, c.Seed, c.Duration, nil)
		closedLoopSummary(res, lat, c.SLO, "rounds of one edit+report per session")
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", rss, 1, "VmHWM of the benchmark process, which hosts the sessions")
		return res, nil
	}

	if err := openSessions(ds, nil); err != nil {
		return nil, err
	}
	plain := designLoop(res, ds, c.Seed, c.Duration/2, nil)
	tr := NewTracer()
	if err := openSessions(ds, tr); err != nil {
		return nil, err
	}
	traced := designLoop(res, ds, c.Seed, c.Duration/2, tr)
	res.set("trace.overhead_share", overheadShare(plain, traced), min(len(plain), len(traced)), "traced over untraced time of the same rounds, minus 1")
	st := tr.Stats()
	setSpan(res, st, "core.session_apply_us", "core.Session.Apply", time.Microsecond)
	setSpan(res, st, "core.session_report_us", "core.Session.Report", time.Microsecond)
	setSpan(res, st, "core.minimal_y_ms", "core.MinimalY", time.Millisecond)
	setSpan(res, st, "core.feasible_x_ms", "core.FeasibleXWindow", time.Millisecond)
	setSpan(res, st, "core.tune_deadlines_ms", "core.TuneDeadlines", time.Millisecond)
	setSpan(res, st, "dbf.setstate_new_ms", "dbf.NewSetState", time.Millisecond)
	setSpan(res, st, "dbf.setstate_apply_us", "dbf.SetState.Apply", time.Microsecond)
	setCoverage(res, st["round"], "one round")
	var edits, deltas int
	for _, d := range ds {
		edits += d.sess.EditsApplied()
		deltas += d.sess.DeltaAnalyses()
	}
	res.set("core.session_delta_share", float64(deltas)/float64(edits), edits,
		fmt.Sprintf("%d delta re-analyses over %d edits", deltas, edits))
	return res, writeSpans(c, "design-loop", tr)
}

// designLoop replays the seeded script for d and returns each round's
// latency. A round flips one toggle of every session and asks each for
// its report; every searchEvery-th round also runs one design search on
// every session with n ≤ 100. The round, not the single edit, is the
// operation: one edit costs from 0.1 ms (FMS) to 10 ms (coprime
// n = 1000), so percentiles over single edits sit on the boundaries
// between those clusters and jump with the seed, while a round's cost is
// their sum.
func designLoop(res *Result, ds []*designSession, seed int64, d time.Duration, tr *Tracer) []time.Duration {
	rnd := gen.SubRand(seed, 2000, 0)
	var lat []time.Duration
	byKind := make(map[string][]float64)
	defer func() {
		keys := make([]string, 0, len(byKind))
		for k := range byKind {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			res.note("%-28s n=%-6d p50 %8.3f ms  p99 %8.3f ms", k, len(byKind[k]), stats.Quantile(byKind[k], 0.5), stats.Quantile(byKind[k], 0.99))
		}
	}()
	edits := make([]task.Edit, len(ds))
	reports := make([]core.Report, len(ds))
	durs := make([]time.Duration, len(ds))
	for round, start := 0, time.Now(); time.Since(start) < d; round++ {
		res.Attempted++
		op := int64(round)
		for i, s := range ds {
			tg := &s.toggles[rnd.Intn(len(s.toggles))]
			tg.state = !tg.state
			edits[i] = tg.edit(tg.state)
		}
		search := round%searchEvery == searchEvery-1
		kind := (round / searchEvery) % 3
		var failure error
		t0 := time.Now()
		root := tr.Begin("round", op, -1)
		for i, s := range ds {
			e0 := time.Now()
			sp := tr.Begin("core.Session.Apply", op, root)
			err := s.sess.Apply(edits[i])
			tr.End(sp)
			if err == nil {
				sp = tr.Begin("core.Session.Report", op, root)
				reports[i], _, err = s.sess.Report()
				tr.End(sp)
			}
			durs[i] = time.Since(e0)
			if err != nil && failure == nil {
				failure = fmt.Errorf("edit on %s: %w", s.label, err)
			}
		}
		if search {
			for i, s := range ds {
				if !s.search {
					continue
				}
				e0 := time.Now()
				err := designSearch(s.sess.Set(), kind, tr, op, root)
				durs[i] += time.Since(e0)
				if err != nil && failure == nil {
					failure = fmt.Errorf("search %d on %s: %w", kind, s.label, err)
				}
			}
		}
		tr.End(root)
		lat = append(lat, time.Since(t0))
		if failure != nil {
			res.fail("round %d: %v", round, failure)
			continue
		}
		for i, s := range ds {
			k := "edit " + s.label
			if search && s.search {
				k = fmt.Sprintf("edit+search%d %s", kind, s.label)
			}
			byKind[k] = append(byKind[k], ms(durs[i]))
			if s.st != nil {
				sp := tr.Begin("dbf.SetState.Apply", op, -1)
				err := s.st.Apply(edits[i])
				tr.End(sp)
				if err != nil {
					res.fail("state apply on %s: %v", s.label, err)
				}
			}
			s.edits++
			if s.edits%checkEvery == 1 && s.checks < maxChecks {
				s.checks++
				if err := checkReport(reports[i], s.sess.Set()); err != nil {
					res.fail("session %s edit %d: %v", s.label, s.edits, err)
				}
			}
		}
	}
	return lat
}

// designSearch runs one design search on the session's current set.
func designSearch(s task.Set, kind int, tr *Tracer, op int64, parent int) error {
	var err error
	switch kind {
	case 0:
		sp := tr.Begin("core.MinimalY", op, parent)
		_, _, err = mcspeedup.MinimalY(s, speedCap)
		tr.End(sp)
	case 1:
		sp := tr.Begin("core.FeasibleXWindow", op, parent)
		_, _, err = mcspeedup.FeasibleXWindow(s.TerminateLO(), speedCap)
		tr.End(sp)
	default:
		sp := tr.Begin("core.TuneDeadlines", op, parent)
		_, err = mcspeedup.TuneDeadlines(s, tuneStep)
		tr.End(sp)
	}
	return err
}

// checkReport compares a session report with a cold AnalyzeSet of the
// same set, byte for byte.
func checkReport(r core.Report, s task.Set) error {
	got, err := r.MarshalIndent()
	if err != nil {
		return err
	}
	cold, err := mcspeedup.AnalyzeSet(s.Clone(), speedCap)
	if err != nil {
		return err
	}
	want, err := cold.MarshalIndent()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("session report differs from a cold analysis (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
