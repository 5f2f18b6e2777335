// Package medshield is the public API of this repository: a Go
// implementation of the unified privacy + ownership protection framework
// for outsourced medical data of Bertino, Ooi, Yang and Deng (ICDE 2005).
//
// The pipeline (Figure 2 of the paper) takes a clinical table and
//
//  1. bins it — generalizes quasi-identifying columns over domain
//     hierarchy trees until every combination of quasi-identifying values
//     is shared by at least k tuples (k-anonymity), staying within usage
//     metrics that cap information loss, and encrypts identifying columns
//     one-to-one; then
//  2. watermarks it — embeds a key-protected ownership mark by permuting
//     binned values hierarchically between the usage-metric frontier and
//     the binning frontier, resilient to subset alteration/addition/
//     deletion and to the generalization attack.
//
// A typical protection run configures the framework with one Config
// (validated eagerly at construction):
//
//	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{
//		K:           20,
//		AutoEpsilon: true,
//		Workers:     0, // fan out over all cores (1 = sequential)
//	})
//	key := medshield.NewKey("hospital secret passphrase", 75)
//	protected, err := fw.ProtectContext(ctx, table, key)
//	// publish protected.Table; retain protected.Provenance + the secret
//	// (protected.Plan.AvgLoss and protected.Embed report the run)
//
// and later, on a suspected copy:
//
//	det, err := fw.DetectContext(ctx, suspect, protected.Provenance, key)
//	if det.Match { /* our mark is present */ }
//
// Repositories that grow after the initial release use the staged form
// of the same pipeline: ProtectContext is exactly PlanContext (binning search +
// ownership-mark derivation, producing a serializable Plan) followed by
// ApplyContext (encrypt, generalize, embed — no search). Retain
// protected.Plan next to the secret and protect each incoming batch
// incrementally:
//
//	app, err := fw.AppendContext(ctx, delta, &plan, key) // no re-search, same mark
//	// publish app.Table (append to the outsourced copy); plan = app.Plan
//
// Every write returns one outcome record. ProtectContext,
// ApplyContext, AppendContext and each FingerprintContext copy return a
// *Protected: the marked Table, the Provenance, and the embedded
// Streamed record — the effective or advanced Plan, embedding
// statistics, bin comparison and row counts. The Stream forms return
// the *Streamed alone, their rows having gone to a writer;
// FingerprintStream returns the same FingerprintResult values as
// FingerprintContext, with a nil Protected.Table.
//
// AppendContext verifies combined-bin k-safety against the plan's published
// bin record and returns ErrPlanDrift when a batch no longer fits the
// frozen plan (values outside the planned frontiers, or a new bin below
// k) — the caller then re-plans over the combined table.
//
// Every pipeline entry point takes a context and aborts promptly when
// it is cancelled or its deadline passes; a program with no request
// scope passes context.Background().
//
// Ownership disputes (§5.4 of the paper) are arbitrated with
// fw.DisputeContext.
// Failures wrap typed sentinels (ErrBadConfig, ErrBadSchema, ErrBadKey,
// ErrBadProvenance, ErrUnsatisfiable, ErrKeyMismatch) classifiable with
// errors.Is.
//
// A schema's quasi-identifying columns must fit one 64-bit joint-bin
// key: each takes bits.Len(tree.Size()) bits for its domain hierarchy
// tree (the builtin schema takes 35). Planning refuses a schema whose
// columns need more with ErrBadSchema, naming the width.
package medshield

import (
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/binning"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/registry"
	"repro/internal/relation"
)

// Core pipeline types.
type (
	// Framework runs the binning + watermarking pipeline.
	Framework = core.Framework
	// Config parameterizes a Framework; see core.Config for field docs.
	Config = core.Config
	// Protected is the result of ProtectContext, ApplyContext,
	// AppendContext and each FingerprintContext copy: the outsourcing-ready table plus the write run's
	// Streamed outcome (effective plan and statistics) and the owner's
	// provenance record.
	Protected = core.Protected
	// Provenance is the (non-secret) record needed for later detection.
	Provenance = core.Provenance
	// Plan is the frozen planning-stage outcome (Framework.PlanContext):
	// a serializable superset of Provenance carrying the searched
	// frontiers, effective watermark parameters and — once applied — the
	// published bin record that incremental appends verify against.
	Plan = core.Plan
	// Detection reports mark recovery from a suspected table.
	Detection = core.Detection
	// Key is the secret watermarking key set (k1, k2, η, encryption key).
	Key = crypt.WatermarkKey
)

// Streaming data-plane types: Framework.ApplyStream and
// Framework.AppendStream protect tables segment-at-a-time with peak
// memory bounded by the segment size (Config.Chunk), and
// their CSV output is byte-identical to ApplyContext/AppendContext's.
// The read side streams too — Framework.DetectStream and
// Framework.TracebackStream consume a suspect segment-at-a-time with
// bit-identical verdicts — and Framework.FingerprintStream fans one
// shared transform out to N recipient CSV writers.
type (
	// Segments is the streaming table source the Stream entry points
	// consume: NewSegmentReader (CSV ingest) and Table.Segments (an
	// in-memory table) both satisfy it. The stream calls read one
	// segment ahead, so Next may run on a helper goroutine — one call at
	// a time, in order, and never after the stream call has returned.
	// Each yielded segment is handed over: ApplyStream, AppendStream and
	// FingerprintStream rewrite their segments in place, so a custom
	// source must yield a fresh Table per call, never one it or the
	// caller still reads.
	Segments = core.Segments
	// Streamed is every write run's outcome: the effective/advanced plan
	// plus statistics. The Stream forms return it alone (the protected
	// rows went to the writer); Protected embeds it.
	Streamed = core.Streamed
	// PlannedStream is Framework.PlanStream's outcome: a plan computed
	// in one pass with memory bounded by distinct quasi-tuples,
	// byte-identical to the in-memory Plan's.
	PlannedStream = core.PlannedStream
	// DetectStreamed is Framework.DetectStream's outcome: the detection
	// verdict (bit-identical to DetectContext's) plus ingest counters.
	DetectStreamed = core.DetectStreamed
	// TracebackStreamed is Framework.TracebackStream's outcome: the
	// ranked verdicts (bit-identical to TracebackContext's) plus ingest
	// counters.
	TracebackStreamed = core.TracebackStreamed
	// SegmentReader ingests a CSV document as a sequence of bounded
	// table segments sharing one dictionary.
	SegmentReader = relation.SegmentReader
	// SegmentWriter emits table segments as one CSV document.
	SegmentWriter = relation.SegmentWriter
)

// DefaultChunk is the default streaming segment size in rows.
const DefaultChunk = relation.DefaultChunk

// Multi-recipient fingerprinting and leak traceback types.
type (
	// Recipient names one outsourcing destination plus the key its copy
	// is marked under (usually RecipientKey-derived).
	Recipient = core.Recipient
	// FingerprintResult is one recipient's marked copy and plan from
	// Framework.FingerprintContext, or its plan alone (nil
	// Protected.Table) from Framework.FingerprintStream.
	FingerprintResult = core.FingerprintResult
	// TracebackCandidate is one registered recipient a suspect table is
	// tested against by Framework.TracebackContext.
	TracebackCandidate = core.Candidate
	// Traceback is the ranked leak-traceback report.
	Traceback = core.Traceback
	// TracebackVerdict is one candidate's detection outcome.
	TracebackVerdict = core.TracebackVerdict
	// RecipientRecord is one recipient's registry entry: ID, key
	// fingerprint, recipient mark and the copy's frozen plan.
	RecipientRecord = registry.Record
	// RecipientRegistry is the concurrent-safe JSON-on-disk (or
	// in-memory) recipient store.
	RecipientRegistry = registry.Store
)

// PlanVersion is the plan serialization format version ParsePlan
// accepts.
const PlanVersion = core.PlanVersion

// Relational substrate types.
type (
	// Table is an in-memory relation with a kind-annotated schema.
	Table = relation.Table
	// Schema describes a table's columns.
	Schema = relation.Schema
	// Column is one schema attribute.
	Column = relation.Column
	// RowView is a zero-copy accessor for one table row, used by the
	// code-level scan APIs (Table.View, Table.DeleteWhereView).
	RowView = relation.RowView
	// Tree is a domain hierarchy tree.
	Tree = dht.Tree
	// GenSet is a valid generalization frontier over a Tree.
	GenSet = dht.GenSet
	// Strategy selects the multi-attribute binning search.
	Strategy = binning.Strategy
)

// Column kinds (see the paper's Section 2 classification).
const (
	Identifying      = relation.Identifying
	QuasiCategorical = relation.QuasiCategorical
	QuasiNumeric     = relation.QuasiNumeric
	Other            = relation.Other
)

// Multi-attribute binning strategies.
const (
	StrategyAuto       = binning.StrategyAuto
	StrategyExhaustive = binning.StrategyExhaustive
	StrategyGreedy     = binning.StrategyGreedy
)

// Sentinel errors of the pipeline, re-exported from core. Every error
// returned by New, ProtectContext, DetectContext, DisputeContext and
// DecryptIdentifiers wraps exactly one of these (or a context error),
// so callers classify failures with errors.Is — the HTTP service layer
// maps them to status codes this way.
var (
	ErrBadConfig     = core.ErrBadConfig
	ErrBadKey        = core.ErrBadKey
	ErrBadSchema     = core.ErrBadSchema
	ErrBadProvenance = core.ErrBadProvenance
	ErrUnsatisfiable = core.ErrUnsatisfiable
	ErrKeyMismatch   = core.ErrKeyMismatch
	// ErrPlanDrift marks a delta batch that no longer fits a frozen
	// plan (values outside the planned frontiers, or a new bin that
	// would fall below k); re-plan over the combined table.
	ErrPlanDrift = core.ErrPlanDrift
)

// ParsePlan deserializes and validates a protection plan document
// (version-gated; every rejection wraps ErrBadProvenance).
func ParsePlan(data []byte) (*Plan, error) { return core.ParsePlan(data) }

// MarshalPlan serializes a plan as indented JSON, the format ParsePlan
// accepts.
func MarshalPlan(p *Plan) ([]byte, error) { return core.MarshalPlan(p) }

// New builds a Framework over per-column domain hierarchy trees,
// configured by one Config whose zero fields take New's defaults:
//
//	fw, err := medshield.New(trees, medshield.Config{K: 20, AutoEpsilon: true})
//
// Validation is eager: an invalid combination returns an error wrapping
// ErrBadConfig here, not at the first ProtectContext. The effective (defaulted)
// configuration is Framework.Config(), which remains the serializable
// record of how the instance behaves.
func New(trees map[string]*Tree, cfg Config) (*Framework, error) {
	return core.New(trees, cfg)
}

// NewKey derives the full secret key set from one passphrase, with
// selection parameter η (roughly one tuple in eta carries mark bits).
func NewKey(secret string, eta uint64) Key {
	return crypt.NewWatermarkKeyFromSecret(secret, eta)
}

// RecipientKey derives the per-recipient key set for multi-recipient
// fingerprinting from the owner's master secret: selection (K1) and
// identifier encryption (Enc) are shared with NewKey(secret, eta), the
// position-addressing key (K2) is salted with the recipient ID. The
// owner re-derives any recipient's key on demand — the registry stores
// only a fingerprint of it.
func RecipientKey(secret, recipientID string, eta uint64) Key {
	return crypt.RecipientWatermarkKey(secret, recipientID, eta)
}

// NewRegistry returns an empty in-memory recipient registry.
func NewRegistry() *RecipientRegistry { return registry.New() }

// OpenRegistry loads (or lazily creates) the JSON recipient registry at
// path; every write lands atomically (mode 0600). An empty path is
// NewRegistry().
func OpenRegistry(path string) (*RecipientRegistry, error) { return registry.Open(path) }

// RecipientRecordOf builds the registry record for one fingerprinted
// copy — store it with RecipientRegistry.Put.
func RecipientRecordOf(recipientID string, key Key, plan Plan) RecipientRecord {
	return registry.RecordOf(recipientID, key, plan)
}

// TracebackCandidates re-derives each registered recipient's key from
// the master secret and verifies it against the stored fingerprint.
// Records the secret cannot verify (foreign imports, stale entries) are
// skipped and their IDs returned second — one bad record must not block
// tracing the rest. A secret verifying no record at all errors with
// ErrKeyMismatch.
func TracebackCandidates(recs []RecipientRecord, secret string) ([]TracebackCandidate, []string, error) {
	return registry.CandidatesFromSecret(recs, secret)
}

// BuiltinSchema returns the paper's evaluation schema
// R(ssn, age, zip_code, doctor, symptom, prescription).
func BuiltinSchema() *Schema { return ontology.Schema() }

// BuiltinTrees returns the builtin medical ontologies (ICD-9-like
// symptoms, ATC-like prescriptions, role and geography hierarchies, and a
// binary interval tree for age), keyed by column name.
func BuiltinTrees() map[string]*Tree { return ontology.Trees() }

// GenerateSyntheticData produces a deterministic synthetic clinical table
// with the builtin schema — the stand-in for the paper's (unpublished)
// 20,000-tuple evaluation data set.
func GenerateSyntheticData(rows int, seed int64) (*Table, error) {
	return datagen.Generate(datagen.Config{Rows: rows, Seed: seed, Correlate: true, ZipfS: 1.2})
}

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table { return relation.NewTable(schema) }

// NewSchema validates and builds a schema from columns.
func NewSchema(cols []Column) (*Schema, error) { return relation.NewSchema(cols) }

// ReadCSV loads a table whose CSV header matches the schema's columns.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) { return relation.ReadCSV(r, schema) }

// NewSegmentReader opens a streaming CSV ingest over r: successive Next
// calls yield bounded table segments of up to chunk rows (0 =
// DefaultChunk) suitable for Framework.ApplyStream/AppendStream.
func NewSegmentReader(r io.Reader, schema *Schema, chunk int) (*SegmentReader, error) {
	return relation.NewSegmentReader(r, schema, chunk)
}

// NewSegmentWriter returns a streaming CSV emitter over w; feed it the
// segments of a table to produce the same bytes Table.WriteCSV would.
func NewSegmentWriter(w io.Writer, schema *Schema) *SegmentWriter {
	return relation.NewSegmentWriter(w, schema)
}

// LoadCSVFile is ReadCSV over a file path.
func LoadCSVFile(path string, schema *Schema) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadCSV(f, schema)
}

// SaveCSVFile writes a table (header + rows) to a file atomically,
// through internal/atomicfile: the CSV lands at path only once it is
// fully written and synced, so a mid-write failure (disk full,
// cancellation, crash) never leaves a truncated table there. An
// existing destination keeps its mode; a new one is 0644.
func SaveCSVFile(path string, tbl *Table) error {
	return atomicfile.WriteFile(path, atomicfile.ModeOr(path, 0o644), tbl.WriteCSV)
}

// ParseTree decodes a JSON-serialized domain hierarchy tree (the format
// produced by Tree.MarshalJSON), revalidating its structure. Unknown
// fields and trailing data are refused.
func ParseTree(data []byte) (*Tree, error) { return dht.ParseTree(data) }
