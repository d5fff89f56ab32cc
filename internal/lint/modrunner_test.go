package lint_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/suite"
)

// The fixture module under testdata/module seeds one diagnostic per
// mechanism the module runner must carry: a direct borrowcheck escape
// (keep), a cross-package escape visible only through an imported
// Borrows fact (use), a malformed ignore (ignores), and one ignore
// directive per audit state. Its nested module (nested/, with its own
// go.mod) holds one more escape that must not be reported: the runner
// skips nested modules as `go vet ./...` does.
const fixtureModule = "testdata/module"

func runFixture(t *testing.T, opts lint.ModuleOptions) *lint.ModuleResult {
	t.Helper()
	res, err := lint.RunModule(fixtureModule, suite.Analyzers, opts)
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	return res
}

func TestRunModuleFixtureDiagnostics(t *testing.T) {
	res := runFixture(t, lint.ModuleOptions{NoCache: true})
	want := []struct{ pos, analyzer, substr string }{
		{"internal/ignores/ignores.go:27:2", "lint", "malformed //lint:ignore"},
		{"internal/ignores/ignores.go:28:11", "borrowcheck", "core.Scratch stored in a package-level variable"},
		{"internal/keep/keep.go:13:11", "borrowcheck", "core.Scratch stored in a package-level variable"},
		{"internal/use/use.go:15:12", "borrowcheck", "core.Scratch s escapes into mcspeedup/internal/keep.Hold, which retains its parameter 0 beyond the call (Borrows fact)"},
	}
	if len(res.Diagnostics) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(res.Diagnostics), len(want), res.Diagnostics)
	}
	for i, w := range want {
		d := res.Diagnostics[i]
		if pos := fmt.Sprintf("%s:%d:%d", filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column); pos != w.pos {
			t.Errorf("diag %d: position %s, want %s", i, pos, w.pos)
		}
		if d.Analyzer != w.analyzer {
			t.Errorf("diag %d: analyzer %q, want %q", i, d.Analyzer, w.analyzer)
		}
		if !strings.Contains(d.Message, w.substr) {
			t.Errorf("diag %d: message %q does not contain %q", i, d.Message, w.substr)
		}
	}
	for _, p := range res.Packages {
		if strings.HasPrefix(p, "mcspeedup/nested") {
			t.Errorf("analyzed %s, a package of the nested module", p)
		}
	}
}

func TestRunModuleCacheRoundTrip(t *testing.T) {
	cacheDir := t.TempDir()
	cold := runFixture(t, lint.ModuleOptions{CacheDir: cacheDir})
	if cold.CacheHits != 0 || cold.CacheMisses != len(cold.Packages) {
		t.Fatalf("cold run: hits=%d misses=%d over %d packages; want all misses",
			cold.CacheHits, cold.CacheMisses, len(cold.Packages))
	}
	warm := runFixture(t, lint.ModuleOptions{CacheDir: cacheDir})
	if warm.CacheMisses != 0 || warm.CacheHits != len(warm.Packages) {
		t.Fatalf("warm run: hits=%d misses=%d over %d packages; want all hits",
			warm.CacheHits, warm.CacheMisses, len(warm.Packages))
	}
	if !reflect.DeepEqual(cold.Diagnostics, warm.Diagnostics) {
		t.Errorf("replayed diagnostics differ from analyzed ones:\ncold: %v\nwarm: %v",
			cold.Diagnostics, warm.Diagnostics)
	}
	if !reflect.DeepEqual(cold.Ignores, warm.Ignores) {
		t.Errorf("replayed ignore audit differs from analyzed one:\ncold: %v\nwarm: %v",
			cold.Ignores, warm.Ignores)
	}
}

// TestRunModuleWorkersByteIdentical pins the determinism guarantee the
// emitters advertise: the full JSON report is byte-identical for every
// -workers count.
func TestRunModuleWorkersByteIdentical(t *testing.T) {
	var reports [][]byte
	for _, workers := range []int{1, 8} {
		res := runFixture(t, lint.ModuleOptions{NoCache: true, Workers: workers})
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		reports = append(reports, buf.Bytes())
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("-workers=1 and -workers=8 reports differ:\n%s\n---\n%s", reports[0], reports[1])
	}
}

func TestRunModuleIgnoresAudit(t *testing.T) {
	res := runFixture(t, lint.ModuleOptions{NoCache: true})
	if len(res.Ignores) != 3 {
		t.Fatalf("got %d ignore directives, want 3: %v", len(res.Ignores), res.Ignores)
	}
	used, stale, bare := res.Ignores[0], res.Ignores[1], res.Ignores[2]
	if !used.Used || used.Malformed {
		t.Errorf("directive 0 (justified, suppressing): %+v; want used", used)
	}
	if stale.Used || stale.Malformed {
		t.Errorf("directive 1 (justified, suppressing nothing): %+v; want stale", stale)
	}
	if !bare.Malformed {
		t.Errorf("directive 2 (no justification): %+v; want malformed", bare)
	}
	var buf bytes.Buffer
	if res.WriteIgnores(&buf) {
		t.Errorf("WriteIgnores passed the audit; want failure (stale + malformed present)")
	}
	for _, want := range []string{"[ok]", "[STALE (no diagnostic suppressed)]", "[MALFORMED (missing justification)]"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("audit output missing %q:\n%s", want, buf.String())
		}
	}
}
