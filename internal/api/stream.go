package api

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/jsondoc"
	"repro/internal/relation"
)

// This file defines the streaming half of the wire contract: a text/csv
// request/response mode for POST /v1/plan, /v1/apply, /v1/append,
// /v1/detect and /v1/traceback. The request body is one CSV document
// (header + records) consumed segment-at-a-time — the server never
// buffers the table. Everything that is not cell data rides in headers
// (request metadata) and HTTP trailers (run statistics, plans and
// verdicts, which only exist once the stream has drained). On
// /v1/apply and /v1/append the response body is the protected CSV,
// emitted incrementally.
//
// Because that response streams, a failure discovered mid-body (a
// source-side CSV error, or an end-of-stream verdict like plan drift)
// cannot change the already-committed 200 status. Such failures are
// reported in the ErrorTrailer instead, and the emitted CSV must be
// discarded. Streaming clients MUST check ErrorTrailer before trusting
// the body; failures detected before the first byte keep the ordinary
// status + ErrorResponse envelope.
//
// The JSON mode of the same endpoints (and every other endpoint) is
// untouched; pick the mode with the request Content-Type.

// POST /v1/plan shares the mode with one twist: the planning pass
// consumes the CSV body segment-at-a-time (bounded by distinct
// quasi-tuples, not rows) but emits no CSV — the response body is
// empty, and the computed plan plus a PlanStreamStats summary ride the
// PlanHeader / StatsTrailer trailers. Because nothing is written before
// the pass completes, plan-mode failures always keep the ordinary
// status + ErrorResponse envelope; ErrorTrailer is never used there.

// The read side of the pipeline speaks the same mode: a text/csv POST
// /v1/detect or /v1/traceback carries the suspect table as the request
// body, consumed segment-at-a-time (core.DetectStream/TracebackStream —
// memory bounded by the segment size, verdicts bit-identical to the
// in-memory endpoints). Like the plan mode they emit no CSV: the
// response body is empty, the verdict document rides the ResultTrailer
// and the ingest counters the StatsTrailer, and every failure keeps the
// ordinary status + ErrorResponse envelope. Detection metadata travels
// in headers: the provenance record (ProvenanceHeader) plus the usual
// secret/eta pair for /v1/detect; /v1/traceback needs only the master
// secret — its candidates come from the server's recipient registry.

// ContentTypeCSV selects the streaming mode on /v1/plan, /v1/apply,
// /v1/append, /v1/detect and /v1/traceback.
const ContentTypeCSV = "text/csv"

// Request headers of the streaming mode. The watermark secret rides the
// existing SecretHeader. Headers are size-limited by the HTTP server
// (net/http defaults to 1 MiB for all headers combined); a plan too
// large to travel as a header must use the JSON mode.
const (
	// PlanHeader carries the plan as one line of JSON (the ParsePlan
	// format, compact — headers cannot hold newlines). As a response
	// trailer, it carries the effective (apply) or advanced (append)
	// plan the same way.
	PlanHeader = "X-Medshield-Plan"
	// SchemaHeader carries the CSV body's schema as a JSON array of
	// Column objects, e.g. [{"name":"ssn","kind":"identifying"},...].
	SchemaHeader = "X-Medshield-Schema"
	// EtaHeader carries the watermark selection parameter η in decimal.
	EtaHeader = "X-Medshield-Eta"
	// OptionsHeader optionally carries an Options object as JSON.
	OptionsHeader = "X-Medshield-Options"
	// ChunkHeader optionally overrides the segment size (rows per
	// segment) in decimal.
	ChunkHeader = "X-Medshield-Chunk"
	// ProvenanceHeader carries the owner's provenance record as one line
	// of JSON on a streaming /v1/detect request.
	ProvenanceHeader = "X-Medshield-Provenance"
)

// Response trailers of the streaming mode.
const (
	// StatsTrailer carries the run summary as a JSON StreamStats.
	StatsTrailer = "X-Medshield-Stats"
	// ErrorTrailer carries a JSON Error when the run failed after the
	// response body had started; absent on success.
	ErrorTrailer = "X-Medshield-Error"
	// ResultTrailer carries the verdict document of a body-less streaming
	// run: a DetectResponse on /v1/detect, a TracebackResponse on
	// /v1/traceback.
	ResultTrailer = "X-Medshield-Result"
)

// ReadStreamStats is the ingest summary of a streaming detect or
// traceback run (their StatsTrailer) — the verdict itself rides the
// ResultTrailer.
type ReadStreamStats struct {
	Rows     int `json:"rows"`
	Segments int `json:"segments"`
}

// StreamStats is the streaming run summary (StatsTrailer).
type StreamStats struct {
	Rows           int `json:"rows"`
	Segments       int `json:"segments"`
	TuplesSelected int `json:"tuples_selected"`
	BitsEmbedded   int `json:"bits_embedded"`
	CellsChanged   int `json:"cells_changed"`
	NewBins        int `json:"new_bins"`
	Suppressed     int `json:"suppressed"`
}

// StreamStatsOf projects a streaming result to its wire summary.
func StreamStatsOf(res *core.Streamed) StreamStats {
	return StreamStats{
		Rows:           res.Rows,
		Segments:       res.Segments,
		TuplesSelected: res.Embed.TuplesSelected,
		BitsEmbedded:   res.Embed.BitsEmbedded,
		CellsChanged:   res.Embed.CellsChanged,
		NewBins:        res.NewBins,
		Suppressed:     res.Suppressed,
	}
}

// PlanStreamStats is the planning-mode run summary (the StatsTrailer of
// a streaming POST /v1/plan).
type PlanStreamStats struct {
	Rows       int     `json:"rows"`
	Segments   int     `json:"segments"`
	K          int     `json:"k"`
	Epsilon    int     `json:"epsilon"`
	EffectiveK int     `json:"effective_k"`
	AvgLoss    float64 `json:"avg_loss"`
}

// ApplyRequest is the JSON mode of POST /v1/apply: execute a saved plan
// on a table — the transform half of protect, with no binning search.
type ApplyRequest struct {
	Table   Table     `json:"table"`
	Plan    core.Plan `json:"plan"`
	Key     Key       `json:"key"`
	Options *Options  `json:"options,omitempty"`
	Output  string    `json:"output,omitempty"` // OutputRows (default) | OutputCSV
}

// ApplyResponse returns the protected table, the provenance record and
// the effective plan (its published bin record filled in — retain it
// for /v1/append).
type ApplyResponse struct {
	Version    string          `json:"version"`
	Table      Table           `json:"table"`
	Provenance core.Provenance `json:"provenance"`
	Plan       core.Plan       `json:"plan"`
	Stats      ProtectStats    `json:"stats"`
}

// DecodeSchemaHeader parses SchemaHeader into a validated schema. The
// header is one JSON column array; unknown column fields and trailing
// data are refused. The columns convert through SchemaOf, as a JSON
// table's do.
func DecodeSchemaHeader(h string) (*relation.Schema, error) {
	if strings.TrimSpace(h) == "" {
		return nil, fmt.Errorf("api: streaming request needs the %s header (JSON column array)", SchemaHeader)
	}
	var cols []Column
	if err := jsondoc.Decode(strings.NewReader(h), &cols, true); err != nil {
		return nil, fmt.Errorf("api: %s: %w", SchemaHeader, err)
	}
	schema, err := SchemaOf(cols)
	if err != nil {
		return nil, fmt.Errorf("api: %s: %w", SchemaHeader, err)
	}
	return schema, nil
}

// DecodePlanHeader parses and validates PlanHeader via core.ParsePlan.
func DecodePlanHeader(h string) (*core.Plan, error) {
	if strings.TrimSpace(h) == "" {
		return nil, fmt.Errorf("api: streaming request needs the %s header (plan JSON on one line)", PlanHeader)
	}
	plan, err := core.ParsePlan([]byte(h))
	if err != nil {
		return nil, fmt.Errorf("api: %s: %w", PlanHeader, err)
	}
	return plan, nil
}

// EncodePlanHeader renders a plan as the single-line JSON PlanHeader
// carries (MarshalPlan indents, which headers cannot hold).
func EncodePlanHeader(plan *core.Plan) (string, error) {
	data, err := json.Marshal(plan)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// DecodeProvenanceHeader parses ProvenanceHeader into the provenance
// record a streaming detect runs under: one JSON document that passes
// core.Provenance.Validate. Fields beyond the provenance's are ignored,
// so a plan on one line (EncodePlanHeader) stands in for one.
func DecodeProvenanceHeader(h string) (core.Provenance, error) {
	var prov core.Provenance
	if strings.TrimSpace(h) == "" {
		return prov, fmt.Errorf("api: streaming request needs the %s header (provenance JSON on one line)", ProvenanceHeader)
	}
	if err := jsondoc.Decode(strings.NewReader(h), &prov, false); err != nil {
		return prov, fmt.Errorf("api: %s: %w: %w", ProvenanceHeader, err, core.ErrBadProvenance)
	}
	if err := prov.Validate(); err != nil {
		return prov, fmt.Errorf("api: %s: %w", ProvenanceHeader, err)
	}
	return prov, nil
}

// DecodeOptionsHeader parses the optional OptionsHeader; empty means no
// overrides (nil). An unknown option (a misspelt "auto_epsilon", say) or
// trailing data is refused rather than silently ignored.
func DecodeOptionsHeader(h string) (*Options, error) {
	if strings.TrimSpace(h) == "" {
		return nil, nil
	}
	var opts Options
	if err := jsondoc.Decode(strings.NewReader(h), &opts, true); err != nil {
		return nil, fmt.Errorf("api: %s: %w", OptionsHeader, err)
	}
	return &opts, nil
}

// DecodeEtaHeader parses the required EtaHeader.
func DecodeEtaHeader(h string) (uint64, error) {
	if strings.TrimSpace(h) == "" {
		return 0, fmt.Errorf("api: streaming request needs the %s header", EtaHeader)
	}
	eta, err := strconv.ParseUint(strings.TrimSpace(h), 10, 64)
	if err != nil || eta == 0 {
		return 0, fmt.Errorf("api: %s: want a decimal >= 1, got %q", EtaHeader, h)
	}
	return eta, nil
}

// DecodeChunkHeader parses the optional ChunkHeader; 0 means "server
// default".
func DecodeChunkHeader(h string) (int, error) {
	if strings.TrimSpace(h) == "" {
		return 0, nil
	}
	chunk, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || chunk < 1 {
		return 0, fmt.Errorf("api: %s: want a decimal >= 1, got %q", ChunkHeader, h)
	}
	return chunk, nil
}
