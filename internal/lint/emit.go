package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Emitters for the module runner's result. Every format renders the
// same globally sorted diagnostic slice, so all of them inherit the
// byte-identical -workers guarantee.

// jsonPosition is the portable position encoding of the machine
// formats.
type jsonPosition struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

type jsonDiagnostic struct {
	Analyzer string       `json:"analyzer"`
	Pos      jsonPosition `json:"pos"`
	Message  string       `json:"message"`
}

type jsonReport struct {
	Module      string           `json:"module"`
	Packages    int              `json:"packages"`
	CacheHits   int              `json:"cacheHits"`
	CacheMisses int              `json:"cacheMisses"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

// WriteJSON renders the result as one indented JSON document.
func (r *ModuleResult) WriteJSON(w io.Writer) error {
	rep := jsonReport{
		Module:      r.ModulePath,
		Packages:    len(r.Packages),
		CacheHits:   r.CacheHits,
		CacheMisses: r.CacheMisses,
		Diagnostics: make([]jsonDiagnostic, 0, len(r.Diagnostics)),
	}
	for _, d := range r.Diagnostics {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
			Analyzer: d.Analyzer,
			Pos:      jsonPosition{File: slashPath(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column},
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// SARIF 2.1.0 skeleton — the minimal subset GitHub code scanning
// ingests: one run, one rule per analyzer, one result per diagnostic.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders the result as a SARIF 2.1.0 log. analyzers
// supplies the rule metadata; diagnostics of the framework itself
// (malformed ignores, analyzer "lint") get a synthesized rule.
func (r *ModuleResult) WriteSARIF(w io.Writer, analyzers []*Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	seen := make(map[string]bool, len(analyzers)+1)
	addRule := func(id, doc string) {
		if !seen[id] {
			seen[id] = true
			short, _, _ := strings.Cut(doc, "\n")
			rules = append(rules, sarifRule{ID: id, ShortDescription: sarifText{Text: short}})
		}
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Doc)
	}
	addRule("lint", "framework diagnostics: malformed //lint:ignore directives")

	results := make([]sarifResult, 0, len(r.Diagnostics))
	for _, d := range r.Diagnostics {
		addRule(d.Analyzer, "")
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: slashPath(d.Pos.Filename)},
				Region:           sarifRegion{StartLine: max(d.Pos.Line, 1), StartColumn: max(d.Pos.Column, 1)},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "mcs-vet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// WriteGitHub renders diagnostics as GitHub Actions workflow commands,
// one ::error annotation per finding.
func (r *ModuleResult) WriteGitHub(w io.Writer) {
	for _, d := range r.Diagnostics {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s (%s)\n",
			slashPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
}

// WriteIgnores renders the `-ignores` audit: every //lint:ignore
// directive with its location, analyzer and justification, flagging
// the malformed (no justification) and the stale (nothing suppressed).
// It reports whether the audit passed.
func (r *ModuleResult) WriteIgnores(w io.Writer) bool {
	ok := true
	for _, ig := range r.Ignores {
		status := "ok"
		switch {
		case ig.Malformed:
			status, ok = "MALFORMED (missing justification)", false
		case !ig.Used:
			status, ok = "STALE (no diagnostic suppressed)", false
		}
		fmt.Fprintf(w, "%s:%d: //lint:ignore %s %s [%s]\n",
			slashPath(ig.Pos.Filename), ig.Pos.Line, ig.Analyzer, ig.Justification, status)
	}
	fmt.Fprintf(w, "%d ignore directives audited\n", len(r.Ignores))
	return ok
}

// slashPath normalizes a position filename for machine output.
func slashPath(p string) string {
	return filepath.ToSlash(p)
}
