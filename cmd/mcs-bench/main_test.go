package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcspeedup/internal/benchcases"
)

// writeBaseline marshals doc into a temp BENCH_core.json and returns its
// path.
func writeBaseline(t *testing.T, doc benchDoc) string {
	t.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaseline(t *testing.T) {
	events := eventsEntry{
		SpeedupExamined: 397, SpeedupJumps: 193,
		ResetExamined: 0, ResetJumps: 2,
		SpeedForExamined: 87, SpeedForJumps: 62,
	}
	base := benchDoc{
		Benchmarks: []benchEntry{
			{Name: "MinSpeedupFMS", NsPerOp: 1000, AllocsPerOp: 0},
			{Name: "MinimalY", NsPerOp: 5000, AllocsPerOp: 7},
			{Name: "Dropped", NsPerOp: 10, AllocsPerOp: 0},
		},
		FMSEvents: &events,
	}
	withEvents := func(edit func(*eventsEntry)) *eventsEntry {
		e := events
		edit(&e)
		return &e
	}

	cases := []struct {
		name    string
		fresh   benchDoc
		wantErr string // substring of the error, "" = no error
	}{
		{
			name: "within tolerance",
			fresh: benchDoc{Benchmarks: []benchEntry{
				{Name: "MinSpeedupFMS", NsPerOp: 1100, AllocsPerOp: 0},
				{Name: "MinimalY", NsPerOp: 4000, AllocsPerOp: 7},
			}, FMSEvents: &events},
		},
		{
			name: "ns regression warns when not gated",
			fresh: benchDoc{Benchmarks: []benchEntry{
				{Name: "MinSpeedupFMS", NsPerOp: 1e9, AllocsPerOp: 0},
			}},
		},
		{
			name: "alloc increase fails regardless of gate",
			fresh: benchDoc{Benchmarks: []benchEntry{
				{Name: "MinimalY", NsPerOp: 100, AllocsPerOp: 8},
			}},
			wantErr: "MinimalY: allocs/op 7 -> 8",
		},
		{
			name: "alloc decrease and new benchmark pass",
			fresh: benchDoc{Benchmarks: []benchEntry{
				{Name: "MinimalY", NsPerOp: 5000, AllocsPerOp: 3},
				{Name: "BrandNew", NsPerOp: 42, AllocsPerOp: 9},
			}},
		},
		{
			name:    "speedup event increase fails",
			fresh:   benchDoc{FMSEvents: withEvents(func(e *eventsEntry) { e.SpeedupExamined++ })},
			wantErr: "fmsEvents.speedupExamined: 397 -> 398",
		},
		{
			name:    "reset jump increase fails",
			fresh:   benchDoc{FMSEvents: withEvents(func(e *eventsEntry) { e.ResetJumps++ })},
			wantErr: "fmsEvents.resetJumps: 2 -> 3",
		},
		{
			name:    "speed-for-reset event increase fails",
			fresh:   benchDoc{FMSEvents: withEvents(func(e *eventsEntry) { e.SpeedForExamined = 88 })},
			wantErr: "fmsEvents.speedForResetExamined: 87 -> 88",
		},
		{
			name: "event decrease passes",
			fresh: benchDoc{FMSEvents: withEvents(func(e *eventsEntry) {
				e.SpeedupExamined, e.SpeedupJumps = 300, 150
			})},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBaseline(base, tc.fresh)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want regression containing %q, got none", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}

	// A baseline that predates fmsEvents gates only the rows.
	if err := compareBaseline(benchDoc{}, benchDoc{FMSEvents: &events}); err != nil {
		t.Errorf("baseline without fmsEvents: %v", err)
	}
}

func TestCompareBaselineBadInputs(t *testing.T) {
	if _, err := loadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file: want error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("[1, 2]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil {
		t.Error("non-document baseline: want error")
	}
	// A missing baseline fails before any benchmark runs or any file is
	// written.
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-out", out, "-compare", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("run with a missing baseline: want error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("run with a missing baseline wrote %s (stat: %v)", out, err)
	}
}

// TestCompareAgainstOwnOutput runs the whole tool with -out naming the
// -compare baseline, as `scripts/bench_core.sh -compare BENCH_core.json`
// does. The baseline must be read before the fresh document overwrites
// it, so an allocs/op increase over it is still reported.
func TestCompareAgainstOwnOutput(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", old) })

	path := writeBaseline(t, benchDoc{Benchmarks: []benchEntry{{Name: "MinimalY", AllocsPerOp: 0}}})
	err := run([]string{"-out", path, "-compare", path, "-grid", "2", "-vetroot", ""})
	if err == nil || !strings.Contains(err.Error(), "MinimalY: allocs/op 0 -> ") {
		t.Fatalf("run -out X -compare X: want the MinimalY allocs/op increase reported, got %v", err)
	}
	fresh, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.FMSEvents == nil || len(fresh.Benchmarks) != len(benchcases.Cases) {
		t.Errorf("fresh document incomplete: %d rows, fmsEvents %v", len(fresh.Benchmarks), fresh.FMSEvents)
	}
}
