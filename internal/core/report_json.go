package core

import (
	"bytes"
	"encoding/json"
	"runtime"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// reportExport is the JSON shape of a Report. Every rational is encoded
// as its exact canonical string (rat.Rat.MarshalJSON) and the task set
// through the task package's marshalers, so the document is byte-
// deterministic for a given analysis outcome — the property the serving
// layer's content-addressed cache and the CLI/server byte-identity
// guarantee rely on.
type reportExport struct {
	Tasks         task.Set      `json:"tasks"`
	Speed         rat.Rat       `json:"speed"`
	UtilLO        rat.Rat       `json:"utilLO"`
	UtilHI        rat.Rat       `json:"utilHI"`
	SchedulableLO bool          `json:"schedulableLO"`
	Speedup       speedupExport `json:"speedup"`
	SchedulableHI bool          `json:"schedulableHI"`
	Reset         resetExport   `json:"reset"`
	ClosedSpeedup rat.Rat       `json:"closedFormSpeedup"`
	ClosedReset   rat.Rat       `json:"closedFormReset"`
	Safe          bool          `json:"safe"`
}

// speedupExport and resetExport carry the analysis payload only — not
// the Events/Jumps walk accounting, which depends on how the result was
// reached (cold walk vs warm-started delta re-analysis) and would break
// the byte-identity between cold and incremental Reports that the
// session layer's cache sharing relies on. The /v1/speedup and /v1/reset
// endpoints expose their own event counts for callers who want them.
type speedupExport struct {
	Value        rat.Rat   `json:"value"`
	LowerBound   rat.Rat   `json:"lowerBound"`
	Exact        bool      `json:"exact"`
	WitnessDelta task.Time `json:"witnessDelta"`
}

type resetExport struct {
	Value rat.Rat `json:"value"`
}

// reportEncoder is an indenting json.Encoder together with the writer
// it encodes to: Encode hands that writer one indented report, which
// Write copies into out. The encoder keeps its indent buffer between
// reports.
type reportEncoder struct {
	enc *json.Encoder
	out []byte
}

func (e *reportEncoder) Write(p []byte) (int, error) {
	e.out = bytes.Clone(p)
	return len(p), nil
}

// reportEncoders is the free list of idle reportEncoders, one per
// GOMAXPROCS. It is a free list rather than a sync.Pool because a
// large-n analysis allocates enough to run garbage collection more than
// once, which would empty a pool between two reports. An encoder whose
// last report exceeded maxKeptReport bytes (some ten thousand tasks) is
// dropped rather than kept.
var reportEncoders = make(chan *reportEncoder, runtime.GOMAXPROCS(0))

const maxKeptReport = 4 << 20

func getReportEncoder() *reportEncoder {
	select {
	case e := <-reportEncoders:
		return e
	default:
		e := new(reportEncoder)
		e.enc = json.NewEncoder(e)
		e.enc.SetIndent("", "  ")
		return e
	}
}

func putReportEncoder(e *reportEncoder) {
	if len(e.out) > maxKeptReport {
		return
	}
	e.out = nil
	select {
	case reportEncoders <- e:
	default: // enough idle encoders already
	}
}

// MarshalIndent renders the report as indented JSON. The output is
// deterministic: mcs-analyze -json and the mcs-serve /v1/analyze endpoint
// both emit exactly these bytes for the same input.
//
// The bytes are json.MarshalIndent's, made the same way — compact
// encoding with HTML escaping, then indentation — by an Encoder that
// is reused, so a report allocates its final size once instead of a
// compact copy, an indented copy and that copy's regrowth. At large n
// those copies are most of an analysis's garbage.
func (r Report) MarshalIndent() ([]byte, error) {
	e := getReportEncoder()
	defer putReportEncoder(e)
	if err := e.enc.Encode(r.export()); err != nil {
		return nil, err
	}
	// Encode ends the value with a newline, which MarshalIndent does not.
	return e.out[:len(e.out)-1], nil
}

// export is the report's JSON shape.
func (r Report) export() reportExport {
	return reportExport{
		Tasks:         r.Set,
		Speed:         r.Speed,
		UtilLO:        r.UtilLO,
		UtilHI:        r.UtilHI,
		SchedulableLO: r.SchedulableLO,
		Speedup: speedupExport{
			Value:        r.Speedup.Speedup,
			LowerBound:   r.Speedup.LowerBound,
			Exact:        r.Speedup.Exact,
			WitnessDelta: r.Speedup.WitnessDelta,
		},
		SchedulableHI: r.SchedulableHI,
		Reset: resetExport{
			Value: r.Reset.Reset,
		},
		ClosedSpeedup: r.ClosedSpeedup,
		ClosedReset:   r.ClosedReset,
		Safe:          r.Safe(),
	}
}
