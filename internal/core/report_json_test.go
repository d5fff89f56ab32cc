package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

func TestReportMarshalIndent(t *testing.T) {
	r, err := Analyze(examplesets.TableI(), rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Tasks         []map[string]any `json:"tasks"`
		Speed         string           `json:"speed"`
		SchedulableLO bool             `json:"schedulableLO"`
		Speedup       struct {
			Value string `json:"value"`
			Exact bool   `json:"exact"`
		} `json:"speedup"`
		Reset struct {
			Value string `json:"value"`
		} `json:"reset"`
		Safe bool `json:"safe"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	// Table I: s_min = 4/3, Δ_R(2) = 6, safe at speed 2.
	if decoded.Speed != "2" || decoded.Speedup.Value != "4/3" || !decoded.Speedup.Exact {
		t.Errorf("speedup fields wrong: %+v", decoded)
	}
	if decoded.Reset.Value != "6" || !decoded.SchedulableLO || !decoded.Safe {
		t.Errorf("reset/safety fields wrong: %+v", decoded)
	}
	if len(decoded.Tasks) != len(examplesets.TableI()) {
		t.Errorf("tasks: %d", len(decoded.Tasks))
	}
}

func TestReportMarshalIndentDeterministic(t *testing.T) {
	set := examplesets.TableI()
	r1, err := Analyze(set, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(set.Clone(), rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r1.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("report JSON not deterministic:\n%s\n---\n%s", a, b)
	}
}

// TestReportMarshalIndentMatchesEncodingJSON pins the reused encoder's
// output to json.MarshalIndent's bytes, on names that need HTML and
// Unicode escaping and on a large coprime set, and checks that a
// returned slice does not alias the encoder's buffers.
func TestReportMarshalIndentMatchesEncodingJSON(t *testing.T) {
	escaped := examplesets.TableI()
	for i, name := range []string{"<a&b> é", "q\"\\ \u2028"} {
		escaped[i].Name = name
	}
	for _, set := range []task.Set{examplesets.TableI(), escaped, examplesets.Coprime(300)} {
		r, err := Analyze(set, rat.Two)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(r.export(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: MarshalIndent differs from json.MarshalIndent:\n%s\n---\n%s", len(set), got, want)
		}
		got[0] = 'x'
		if again, _ := r.MarshalIndent(); !bytes.Equal(again, want) {
			t.Fatalf("n=%d: a returned report aliases the encoder's buffers", len(set))
		}
	}
}
