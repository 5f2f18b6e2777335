// Package api defines the versioned JSON wire contract of the medshield
// HTTP service: request/response DTOs for the three pipeline operations
// (protect, detect, dispute), a CSV-or-rows table payload, and a
// structured error envelope with machine-readable codes. The provenance
// record travels as the existing core.Provenance JSON — the wire format
// and the owner's retained record are the same document, so a protect
// response's provenance can be stored verbatim and replayed in a later
// detect request.
//
// The package is transport-agnostic: it knows JSON and the pipeline's
// sentinel errors, not net/http handlers (those live in
// internal/server). Version is carried in every response body so clients
// can assert compatibility without inspecting URLs.
package api

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/binning"
	"repro/internal/core"
	"repro/internal/jsondoc"
	"repro/internal/relation"
)

// Version is the wire-format version tag carried in every response and
// matched by the URL prefix (/v1/...).
const Version = "v1"

// Column describes one table column on the wire. Kind uses the string
// forms of relation.Kind: "identifying", "quasi-categorical",
// "quasi-numeric", "other".
type Column struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// Table is the CSV-or-rows table payload. Columns is always required —
// it is the schema, including the kind classification the pipeline
// needs. The cells come either inline as Rows or as one CSV document
// (header + records) in CSV; exactly one of the two must be set.
type Table struct {
	Columns []Column   `json:"columns"`
	Rows    [][]string `json:"rows,omitempty"`
	CSV     string     `json:"csv,omitempty"`
}

// Output formats for table-bearing responses.
const (
	OutputRows = "rows" // default: cells inline as JSON arrays
	OutputCSV  = "csv"  // cells as one CSV document
)

// Key carries the watermarking secret on the wire: the passphrase the
// full key set derives from (crypt.NewWatermarkKeyFromSecret) and the
// selection parameter η.
type Key struct {
	Secret string `json:"secret"`
	Eta    uint64 `json:"eta"`
}

// Options overrides server-default pipeline configuration per request.
// Zero-valued fields inherit the server default; booleans and Workers
// are pointers so an explicit false/0 is distinguishable from absent.
type Options struct {
	K                   int      `json:"k,omitempty"`
	Epsilon             int      `json:"epsilon,omitempty"`
	AutoEpsilon         *bool    `json:"auto_epsilon,omitempty"`
	Strategy            string   `json:"strategy,omitempty"` // "auto" | "exhaustive" | "greedy"
	EnumLimit           int      `json:"enum_limit,omitempty"`
	Aggressive          *bool    `json:"aggressive,omitempty"`
	IdentCol            string   `json:"ident_col,omitempty"`
	MarkBits            int      `json:"mark_bits,omitempty"`
	Duplication         int      `json:"duplication,omitempty"`
	Quantum             *float64 `json:"quantum,omitempty"`
	Tau                 *float64 `json:"tau,omitempty"`
	LossThreshold       *float64 `json:"loss_threshold,omitempty"`
	WeightedVoting      *bool    `json:"weighted_voting,omitempty"`
	BoundaryPermutation *bool    `json:"boundary_permutation,omitempty"`
	NoColumnSalt        *bool    `json:"no_column_salt,omitempty"`
	Workers             *int     `json:"workers,omitempty"`
}

// ProtectRequest asks the service to run the full Figure-2 pipeline.
type ProtectRequest struct {
	Table   Table    `json:"table"`
	Key     Key      `json:"key"`
	Options *Options `json:"options,omitempty"`
	Output  string   `json:"output,omitempty"` // OutputRows (default) | OutputCSV
}

// ProtectStats is the response's run summary.
type ProtectStats struct {
	Rows           int     `json:"rows"`
	TuplesSelected int     `json:"tuples_selected"`
	BitsEmbedded   int     `json:"bits_embedded"`
	CellsChanged   int     `json:"cells_changed"`
	EffectiveK     int     `json:"effective_k"`
	Epsilon        int     `json:"epsilon"`
	AvgLoss        float64 `json:"avg_loss"`
}

// ProtectResponse returns the outsourcing-ready table, the owner's
// provenance record (store it — detection needs it back verbatim) and
// the effective protection plan (store it too — incremental appends
// replay it; it is a superset of the provenance record).
type ProtectResponse struct {
	Version    string          `json:"version"`
	Table      Table           `json:"table"`
	Provenance core.Provenance `json:"provenance"`
	Plan       core.Plan       `json:"plan"`
	Stats      ProtectStats    `json:"stats"`
}

// PlanRequest asks the service to run only the planning stage: the
// binning frontier search and ownership-mark derivation, with no table
// transform. The response's plan is a dry-run artifact — it shows the
// effective k, frontiers and information loss a protect run would use —
// and becomes executable through /v1/protect (which re-plans
// identically) or a library ApplyContext.
type PlanRequest struct {
	Table   Table    `json:"table"`
	Key     Key      `json:"key"`
	Options *Options `json:"options,omitempty"`
}

// PlanStats summarizes the search.
type PlanStats struct {
	Rows       int     `json:"rows"`
	K          int     `json:"k"`
	Epsilon    int     `json:"epsilon"`
	EffectiveK int     `json:"effective_k"`
	AvgLoss    float64 `json:"avg_loss"`
}

// PlanResponse returns the searched plan.
type PlanResponse struct {
	Version string    `json:"version"`
	Plan    core.Plan `json:"plan"`
	Stats   PlanStats `json:"stats"`
}

// AppendRequest asks the service to protect a delta batch under an
// existing plan — the plan a previous protect (or append) response
// returned, with its published bin record. The response carries only
// the protected delta rows; the caller appends them to the outsourced
// table and retains the advanced plan for the next batch.
type AppendRequest struct {
	Table   Table     `json:"table"` // the delta batch (clear-text rows)
	Plan    core.Plan `json:"plan"`
	Key     Key       `json:"key"`
	Options *Options  `json:"options,omitempty"`
	Output  string    `json:"output,omitempty"` // OutputRows (default) | OutputCSV
}

// AppendStats is the append work summary.
type AppendStats struct {
	// Rows is the number of protected delta rows returned.
	Rows int `json:"rows"`
	// TotalRows is the published union size per the advanced plan.
	TotalRows      int `json:"total_rows"`
	TuplesSelected int `json:"tuples_selected"`
	BitsEmbedded   int `json:"bits_embedded"`
	CellsChanged   int `json:"cells_changed"`
	NewBins        int `json:"new_bins"`
	Suppressed     int `json:"suppressed"`
}

// AppendResponse returns the protected delta and the advanced plan.
type AppendResponse struct {
	Version string      `json:"version"`
	Table   Table       `json:"table"`
	Plan    core.Plan   `json:"plan"`
	Stats   AppendStats `json:"stats"`
}

// DetectRequest asks whether the owner's mark is present in a suspected
// table, given the provenance record from the original protect run.
type DetectRequest struct {
	Table      Table           `json:"table"`
	Provenance core.Provenance `json:"provenance"`
	Key        Key             `json:"key"`
	Options    *Options        `json:"options,omitempty"`
}

// DetectStats is the detection work summary.
type DetectStats struct {
	TuplesSelected int `json:"tuples_selected"`
	VotesCast      int `json:"votes_cast"`
	BitsRead       int `json:"bits_read"`
	SkippedCells   int `json:"skipped_cells"`
}

// DetectResponse reports the verdict.
type DetectResponse struct {
	Version  string      `json:"version"`
	Match    bool        `json:"match"`
	MarkLoss float64     `json:"mark_loss"`
	Mark     string      `json:"mark"`
	Stats    DetectStats `json:"stats"`
}

// RivalClaim is a competing ownership assertion in a dispute: the
// claimant's key material, claimed statistic v and claimed mark, plus
// the claimed duplication factor (0 = the provenance's; negative is
// refused). The rest of the embedding policy is the provenance's.
type RivalClaim struct {
	Claimant    string  `json:"claimant"`
	Key         Key     `json:"key"`
	V           float64 `json:"v"`
	Mark        string  `json:"mark"` // '0'/'1' runes
	Duplication int     `json:"duplication,omitempty"`
}

// DisputeRequest asks the service to arbitrate ownership (§5.4): the
// owner's claim is rebuilt from the provenance record plus OwnerKey;
// rival claims come explicitly.
type DisputeRequest struct {
	Table      Table           `json:"table"`
	Provenance core.Provenance `json:"provenance"`
	OwnerKey   Key             `json:"owner_key"`
	Rivals     []RivalClaim    `json:"rivals,omitempty"`
	Options    *Options        `json:"options,omitempty"`
}

// Verdict mirrors ownership.Verdict with wire-stable field names.
type Verdict struct {
	Claimant     string  `json:"claimant"`
	DecryptOK    bool    `json:"decrypt_ok"`
	StatisticOK  bool    `json:"statistic_ok"`
	MarkDerived  bool    `json:"mark_derived"`
	MarkDetected bool    `json:"mark_detected"`
	MarkLoss     float64 `json:"mark_loss"`
	Valid        bool    `json:"valid"`
	Reason       string  `json:"reason,omitempty"`
}

// DisputeResponse returns one verdict per claim, owner first.
type DisputeResponse struct {
	Version  string    `json:"version"`
	Verdicts []Verdict `json:"verdicts"`
}

// HealthResponse is the /v1/healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Workers  int    `json:"workers"`
	Inflight int    `json:"inflight"`
	Capacity int    `json:"capacity"`
}

// DecodeTable materializes the wire payload as a relation.Table,
// validating the schema and the cells. Exactly one of Rows and CSV must
// carry the data (an empty table is Rows with zero records: set neither
// and the table has the schema only).
func DecodeTable(t Table) (*relation.Table, error) {
	schema, err := SchemaOf(t.Columns)
	if err != nil {
		return nil, err
	}
	if t.CSV != "" {
		if len(t.Rows) > 0 {
			return nil, fmt.Errorf("api: table carries both rows and csv; choose one")
		}
		return relation.ReadCSV(strings.NewReader(t.CSV), schema)
	}
	tbl := relation.NewTable(schema)
	for i, row := range t.Rows {
		if err := tbl.AppendRow(row); err != nil {
			return nil, fmt.Errorf("api: row %d: %w", i, err)
		}
	}
	return tbl, nil
}

// SchemaOf converts the wire column list to a validated schema without
// touching cell data — the streaming paths use it to plan over a CSV
// source they never materialize.
func SchemaOf(columns []Column) (*relation.Schema, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("api: table has no columns")
	}
	cols := make([]relation.Column, len(columns))
	for i, c := range columns {
		kind, err := ParseKind(c.Kind)
		if err != nil {
			return nil, fmt.Errorf("api: column %q: %w", c.Name, err)
		}
		cols[i] = relation.Column{Name: c.Name, Kind: kind}
	}
	return relation.NewSchema(cols)
}

// EncodeTable converts a relation.Table to the wire payload in the given
// output format (OutputRows when empty).
func EncodeTable(tbl *relation.Table, output string) (Table, error) {
	schema := tbl.Schema()
	out := Table{Columns: make([]Column, schema.NumColumns())}
	for i := 0; i < schema.NumColumns(); i++ {
		c := schema.Column(i)
		out.Columns[i] = Column{Name: c.Name, Kind: c.Kind.String()}
	}
	switch output {
	case "", OutputRows:
		out.Rows = make([][]string, tbl.NumRows())
		for i := 0; i < tbl.NumRows(); i++ {
			out.Rows[i] = tbl.View(i).AppendTo(make([]string, 0, schema.NumColumns()))
		}
	case OutputCSV:
		var sb strings.Builder
		if err := tbl.WriteCSV(&sb); err != nil {
			return Table{}, err
		}
		out.CSV = sb.String()
	default:
		return Table{}, fmt.Errorf("api: unknown output format %q (want %q or %q)", output, OutputRows, OutputCSV)
	}
	return out, nil
}

// ParseKind maps the wire kind string to relation.Kind. It accepts the
// String() forms plus pragmatic aliases.
func ParseKind(s string) (relation.Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "identifying", "ident", "id":
		return relation.Identifying, nil
	case "quasi-categorical", "quasi_categorical", "categorical":
		return relation.QuasiCategorical, nil
	case "quasi-numeric", "quasi_numeric", "numeric":
		return relation.QuasiNumeric, nil
	case "other", "":
		return relation.Other, nil
	default:
		return 0, fmt.Errorf("unknown column kind %q", s)
	}
}

// Apply overlays the request options on a base configuration and
// returns the effective one. Zero-valued / nil fields inherit base.
func (o *Options) Apply(base core.Config) (core.Config, error) {
	cfg := base
	if o == nil {
		return cfg, nil
	}
	if o.K != 0 {
		cfg.K = o.K
	}
	if o.Epsilon != 0 {
		cfg.Epsilon = o.Epsilon
	}
	if o.AutoEpsilon != nil {
		cfg.AutoEpsilon = *o.AutoEpsilon
	}
	if o.Strategy != "" {
		s, err := ParseStrategy(o.Strategy)
		if err != nil {
			return cfg, err
		}
		cfg.Strategy = s
	}
	if o.EnumLimit != 0 {
		cfg.EnumLimit = o.EnumLimit
	}
	if o.Aggressive != nil {
		cfg.Aggressive = *o.Aggressive
	}
	if o.IdentCol != "" {
		cfg.IdentCol = o.IdentCol
	}
	if o.MarkBits != 0 {
		cfg.MarkBits = o.MarkBits
	}
	if o.Duplication != 0 {
		cfg.Duplication = o.Duplication
	}
	if o.Quantum != nil {
		cfg.Quantum = *o.Quantum
	}
	if o.Tau != nil {
		cfg.Tau = *o.Tau
	}
	if o.LossThreshold != nil {
		cfg.LossThreshold = *o.LossThreshold
	}
	if o.WeightedVoting != nil {
		cfg.WeightedVoting = *o.WeightedVoting
	}
	if o.BoundaryPermutation != nil {
		cfg.BoundaryPermutation = *o.BoundaryPermutation
	}
	if o.NoColumnSalt != nil {
		cfg.NoColumnSalt = *o.NoColumnSalt
		cfg.SaltPositionWithColumn = false // re-derived by core.New
	}
	if o.Workers != nil {
		cfg.Workers = *o.Workers
	}
	return cfg, nil
}

// ParseStrategy maps the wire strategy string to the binning strategy
// (the inverse of Strategy.String()).
func ParseStrategy(s string) (binning.Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return binning.StrategyAuto, nil
	case "exhaustive":
		return binning.StrategyExhaustive, nil
	case "greedy":
		return binning.StrategyGreedy, nil
	default:
		return binning.StrategyAuto, fmt.Errorf("unknown strategy %q (want auto, exhaustive or greedy)", s)
	}
}

// DecodeJSON decodes one JSON document from r into v, rejecting
// trailing garbage. Size limiting is the caller's concern
// (http.MaxBytesReader in the server).
func DecodeJSON(r io.Reader, v any) error {
	if err := jsondoc.Decode(r, v, false); err != nil {
		return fmt.Errorf("api: decoding request: %w", err)
	}
	return nil
}
