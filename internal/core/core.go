// Package core implements the paper's unified protection framework for
// outsourced medical data (Section 3, Figure 2): a binning agent that
// transforms the table to satisfy the k-anonymity specification under
// usage metrics, followed by a watermarking agent that embeds an
// owner-specific mark into the binned data. The output simultaneously
// protects individual privacy (no bin smaller than k) and data ownership
// (a key-protected, attack-resilient mark whose value commits to a
// statistic of the encrypted identifiers, resolving the rightful
// ownership problem of §5.4).
package core

import (
	"context"
	"fmt"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Config parameterizes the framework. Zero values get sensible defaults
// from New: MarkBits 20 (as in §7.2), Duplication 4, Quantum 1e6, Tau
// 5e7, LossThreshold 0.15, SaltPositionWithColumn true.
type Config struct {
	// K is the k-anonymity specification parameter.
	K int
	// Epsilon is the §6 slack added to K during binning so watermarking
	// cannot push a bin below K. Ignored when AutoEpsilon is set.
	Epsilon int
	// AutoEpsilon computes the paper's conservative ε = (s/S)·|wmd| from
	// a first binning pass, then re-bins at K+ε.
	AutoEpsilon bool
	// MaxGens optionally gives the usage metrics directly as maximal
	// generalization nodes (the simplification §7 uses).
	MaxGens map[string]dht.GenSet
	// Metrics optionally gives Equation (4) bounds instead.
	Metrics *infoloss.Metrics
	// Strategy and EnumLimit control multi-attribute binning.
	Strategy  binning.Strategy
	EnumLimit int
	// Aggressive selects the sketched aggressive mono-binning rule.
	Aggressive bool
	// IdentCol names the identifying column used as the watermark anchor;
	// empty selects the schema's sole identifying column.
	IdentCol string
	// MarkBits is the mark length |wm| (default 20).
	MarkBits int
	// Duplication is the replication factor l (default 4).
	Duplication int
	// Quantum is the quantization step of the ownership function F.
	Quantum float64
	// Tau is the statistic tolerance τ used in disputes.
	Tau float64
	// LossThreshold is the maximal mark loss accepted as a match.
	LossThreshold float64
	// WeightedVoting and BoundaryPermutation are passed to the
	// watermarking agent (see watermark.Params).
	WeightedVoting      bool
	BoundaryPermutation bool
	// NoColumnSalt disables the default column salt in the wmd-position
	// hash (DESIGN.md deviation 5), restoring the paper's literal
	// single-column addressing. It is the single source of truth for the
	// salt policy: New derives the effective SaltPositionWithColumn as
	// !NoColumnSalt, and rejects configurations that set both fields.
	NoColumnSalt bool
	// SaltPositionWithColumn is derived by New (= !NoColumnSalt) and is
	// only exported so the effective configuration and the provenance
	// record can carry it. Do not set it directly: a true value combined
	// with NoColumnSalt is a validation error, and any other explicit
	// value is overwritten by the derivation.
	SaltPositionWithColumn bool
	// Workers bounds the goroutines the pipeline fans out to: the
	// exhaustive multi-attribute binning search, watermark embedding and
	// detection all shard their work across it (0 = GOMAXPROCS,
	// 1 = sequential). Outputs are identical for every worker count.
	Workers int
	// Chunk is the row count of one streaming segment — the unit the
	// service and CLI layers feed ApplyStream/AppendStream, and the
	// bound on the streaming data plane's resident row set. New defaults
	// 0 to relation.DefaultChunk and rejects values below 1. Output is
	// byte-identical for every chunk size.
	Chunk int
}

// ColumnProvenance records one column's frontiers in portable form.
type ColumnProvenance struct {
	Ulti []string `json:"ulti"`
	Max  []string `json:"max"`
}

// Provenance is everything (besides the secret key) the owner must retain
// to later detect the mark or argue a dispute. It is JSON-serializable;
// it contains no key material.
type Provenance struct {
	IdentCol               string                      `json:"ident_col"`
	K                      int                         `json:"k"`
	Epsilon                int                         `json:"epsilon"`
	Mark                   string                      `json:"mark"` // '0'/'1' runes
	V                      float64                     `json:"v"`    // the §5.4 statistic
	Quantum                float64                     `json:"quantum"`
	Duplication            int                         `json:"duplication"`
	WeightedVoting         bool                        `json:"weighted_voting,omitempty"`
	SaltPositionWithColumn bool                        `json:"salt_position_with_column,omitempty"`
	BoundaryPermutation    bool                        `json:"boundary_permutation,omitempty"`
	Columns                map[string]ColumnProvenance `json:"columns"`
}

// Protected is the outcome of Protect.
type Protected struct {
	// Table is the outsourcing-ready table: binned and watermarked.
	Table *relation.Table
	// Provenance is the owner's detection/dispute record.
	Provenance Provenance
	// Plan is the effective protection plan: the input plan with the
	// §5.1 boundary-permutation decision actually taken and the
	// published bin record (Bins/Rows) filled in. Retain it (it is a
	// superset of Provenance) to protect later batches with
	// AppendContext.
	Plan Plan
	// Binning exposes the binning agent's result as the plan records it:
	// frontiers, losses, effective k and the suppressed row count. Its
	// Table, MonoStats and MultiStats are always zero — applying a plan
	// runs no search.
	Binning *binning.Result
	// Embed exposes the watermarking agent's statistics.
	Embed watermark.EmbedStats
	// BinStats compares the per-column mono bins before and after
	// watermarking (the Figure 14 measurement for this run).
	BinStats anonymity.Stats
}

// Framework wires the binning agent and the watermarking agent.
type Framework struct {
	trees map[string]*dht.Tree
	cfg   Config
}

// New validates the configuration and returns a Framework over the given
// per-column domain hierarchy trees.
func New(trees map[string]*dht.Tree, cfg Config) (*Framework, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: no domain hierarchy trees: %w", ErrBadConfig)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d: %w", cfg.K, ErrBadConfig)
	}
	if cfg.Chunk == 0 {
		cfg.Chunk = relation.DefaultChunk
	}
	if cfg.Chunk < 1 {
		return nil, fmt.Errorf("core: Chunk must be >= 1: %w", ErrBadConfig)
	}
	if cfg.MarkBits == 0 {
		cfg.MarkBits = 20
	}
	if cfg.MarkBits < 1 {
		return nil, fmt.Errorf("core: MarkBits must be >= 1: %w", ErrBadConfig)
	}
	if cfg.Duplication == 0 {
		cfg.Duplication = 4
	}
	if cfg.Duplication < 1 {
		return nil, fmt.Errorf("core: Duplication must be >= 1: %w", ErrBadConfig)
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1e6
	}
	if cfg.Tau == 0 {
		cfg.Tau = 5e7
	}
	if cfg.LossThreshold == 0 {
		cfg.LossThreshold = 0.15
	}
	if cfg.NoColumnSalt && cfg.SaltPositionWithColumn {
		return nil, fmt.Errorf(
			"core: conflicting Config: NoColumnSalt and SaltPositionWithColumn are both set; NoColumnSalt is the single source of truth — leave SaltPositionWithColumn unset: %w", ErrBadConfig)
	}
	cfg.SaltPositionWithColumn = !cfg.NoColumnSalt
	return &Framework{trees: trees, cfg: cfg}, nil
}

// Trees returns the framework's tree map (shared, not copied).
func (f *Framework) Trees() map[string]*dht.Tree { return f.trees }

// Config returns the effective (defaulted) configuration.
func (f *Framework) Config() Config { return f.cfg }

func (f *Framework) identCol(schema *relation.Schema) (string, error) {
	if f.cfg.IdentCol != "" {
		if _, err := schema.Index(f.cfg.IdentCol); err != nil {
			return "", fmt.Errorf("%w: %w", err, ErrBadSchema)
		}
		return f.cfg.IdentCol, nil
	}
	idents := schema.IdentColumns()
	if len(idents) != 1 {
		return "", fmt.Errorf("core: schema has %d identifying columns; set Config.IdentCol: %w", len(idents), ErrBadSchema)
	}
	return idents[0], nil
}

// Protect runs the full pipeline of Figure 2 on tbl under the secret key:
// derive the ownership mark wm = F(v) from the clear-text identifiers
// (§5.4), bin to satisfy k-anonymity (+ε) under the usage metrics
// (Section 4), and watermark the binned table hierarchically (Section 5).
// The input table is not modified.
func (f *Framework) Protect(tbl *relation.Table, key crypt.WatermarkKey) (*Protected, error) {
	return f.ProtectContext(context.Background(), tbl, key)
}

// ProtectContext is Protect under a context: binning (including the
// candidate search and re-binning pass), encryption, generalization and
// watermark embedding all abort promptly with the context's error once
// ctx is cancelled or its deadline passes. A request-scoped caller — the
// HTTP service, a job queue — should always use this form.
//
// ProtectContext is exactly PlanContext followed by ApplyContext; the
// two stages are independently invokable for plan-once/apply-later and
// incremental (AppendContext) workflows.
func (f *Framework) ProtectContext(ctx context.Context, tbl *relation.Table, key crypt.WatermarkKey) (*Protected, error) {
	reportProgress(ctx, Progress{Stage: "plan", Done: 0, Total: 2})
	plan, err := f.PlanContext(ctx, tbl, key)
	if err != nil {
		return nil, err
	}
	reportProgress(ctx, Progress{Stage: "apply", Done: 1, Total: 2})
	prot, err := f.ApplyContext(ctx, tbl, plan, key)
	if err != nil {
		return nil, err
	}
	reportProgress(ctx, Progress{Stage: "apply", Done: 2, Total: 2})
	return prot, nil
}

// Apply is ApplyContext under the background context.
func (f *Framework) Apply(tbl *relation.Table, plan *Plan, key crypt.WatermarkKey) (*Protected, error) {
	return f.ApplyContext(context.Background(), tbl, plan, key)
}

// ApplyContext executes a plan on tbl — the transform half of the
// Figure 2 pipeline, with no search: encrypt the identifying columns,
// generalize the quasi columns to the planned frontiers, and embed the
// planned mark (§5.1 boundary-permutation fallback included). It is the
// write loop of ApplyStream over tbl as a single segment, so the marked
// table is byte-identical to ApplyStream's CSV. The input table is not
// modified. The returned Protected carries the effective plan
// (Protected.Plan) with the published bin record filled in — the
// document AppendContext later verifies delta batches against.
func (f *Framework) ApplyContext(ctx context.Context, tbl *relation.Table, plan *Plan, key crypt.WatermarkKey) (*Protected, error) {
	prots, err := f.applyTable(ctx, tbl, []output{{plan: plan, key: key}})
	if err != nil {
		return nil, err
	}
	return prots[0], nil
}

// ownershipMark derives the §5.4 ownership mark, wrapping failures in
// ErrBadSchema (the statistic is undefined for non-numeric identifying
// columns).
func ownershipMark(tbl *relation.Table, identCol string, quantum float64, markBits int) (bitstr.Bits, float64, error) {
	mark, v, err := ownership.OwnerMark(tbl, identCol, quantum, markBits)
	if err != nil {
		return bitstr.Bits{}, 0, fmt.Errorf("core: deriving ownership mark: %w: %w", err, ErrBadSchema)
	}
	return mark, v, nil
}

// SpecsFromProvenance rebuilds the watermark column specs from a stored
// provenance record and the framework's trees.
func (f *Framework) SpecsFromProvenance(prov Provenance) (map[string]watermark.ColumnSpec, error) {
	out := make(map[string]watermark.ColumnSpec, len(prov.Columns))
	for col, cp := range prov.Columns {
		tree, ok := f.trees[col]
		if !ok {
			return nil, fmt.Errorf("core: no tree for column %s: %w", col, ErrBadProvenance)
		}
		ulti, err := dht.NewGenSetFromValues(tree, cp.Ulti)
		if err != nil {
			return nil, fmt.Errorf("core: column %s: %w: %w", col, err, ErrBadProvenance)
		}
		maxg, err := dht.NewGenSetFromValues(tree, cp.Max)
		if err != nil {
			return nil, fmt.Errorf("core: column %s: %w: %w", col, err, ErrBadProvenance)
		}
		out[col] = watermark.ColumnSpec{Tree: tree, MaxGen: maxg, UltiGen: ulti}
	}
	return out, nil
}

// paramsFromProvenance rebuilds detection parameters; the mark comes from
// the provenance record, the key from the caller.
func paramsFromProvenance(prov Provenance, key crypt.WatermarkKey) (watermark.Params, error) {
	mark, err := bitstr.FromString(prov.Mark)
	if err != nil {
		return watermark.Params{}, fmt.Errorf("core: provenance mark: %w: %w", err, ErrBadProvenance)
	}
	return watermark.Params{
		Key:                    key,
		Mark:                   mark,
		Duplication:            prov.Duplication,
		WeightedVoting:         prov.WeightedVoting,
		SaltPositionWithColumn: prov.SaltPositionWithColumn,
		BoundaryPermutation:    prov.BoundaryPermutation,
	}, nil
}

// Detection is Detect's report.
type Detection struct {
	Result watermark.DetectResult
	// MarkLoss is the detected mark's loss against the provenance mark.
	MarkLoss float64
	// Match applies the configured loss threshold.
	Match bool
}

// Detect recovers the mark from a (possibly attacked) table under the
// secret key and compares it with the provenance record.
func (f *Framework) Detect(tbl *relation.Table, prov Provenance, key crypt.WatermarkKey) (*Detection, error) {
	return f.DetectContext(context.Background(), tbl, prov, key)
}

// DetectContext is Detect under a context: DetectStream over tbl as a
// single segment, so its vote-harvesting scan aborts promptly with the
// context's error on cancellation.
func (f *Framework) DetectContext(ctx context.Context, tbl *relation.Table, prov Provenance, key crypt.WatermarkKey) (*Detection, error) {
	det, err := f.DetectStream(ctx, &oneSegment{tbl: tbl}, prov, key)
	if err != nil {
		return nil, err
	}
	return &det.Detection, nil
}

// Dispute arbitrates ownership of a disputed table (§5.4). The owner's
// claim is built from the provenance record plus the owner's key; rival
// claims come as ownership.Claim values.
func (f *Framework) Dispute(disputed *relation.Table, prov Provenance, ownerKey crypt.WatermarkKey, rivals []ownership.Claim) ([]ownership.Verdict, error) {
	return f.DisputeContext(context.Background(), disputed, prov, ownerKey, rivals)
}

// DisputeContext is Dispute under a context: each claim's detection scan
// aborts promptly with the context's error on cancellation.
func (f *Framework) DisputeContext(ctx context.Context, disputed *relation.Table, prov Provenance, ownerKey crypt.WatermarkKey, rivals []ownership.Claim) ([]ownership.Verdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	columns, err := f.SpecsFromProvenance(prov)
	if err != nil {
		return nil, err
	}
	params, err := paramsFromProvenance(prov, ownerKey)
	if err != nil {
		return nil, err
	}
	params.Workers = f.cfg.Workers
	judge := ownership.Judge{
		IdentCol:      prov.IdentCol,
		Columns:       columns,
		Tau:           f.cfg.Tau,
		Quantum:       prov.Quantum,
		LossThreshold: f.cfg.LossThreshold,
	}
	claims := append([]ownership.Claim{{
		Claimant: "owner",
		V:        prov.V,
		Key:      ownerKey,
		Params:   params,
	}}, rivals...)
	return judge.ResolveContext(ctx, disputed, claims)
}

// DecryptIdentifiers returns a copy of tbl with identCol decrypted back
// to cleartext under the owner's key — the inverse of the binning
// agent's one-to-one encryption, available only to the key holder
// (§5.4: "only the true owner can decrypt them"). identCol empty selects
// the configured or sole identifying column. A well-formed key whose
// ciphertexts fail to authenticate returns ErrKeyMismatch wrapping the
// first failing row's error.
func (f *Framework) DecryptIdentifiers(ctx context.Context, tbl *relation.Table, identCol string, key crypt.WatermarkKey) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(key.Enc) == 0 {
		return nil, fmt.Errorf("core: empty encryption key: %w", ErrBadKey)
	}
	if identCol == "" {
		var err error
		if identCol, err = f.identCol(tbl.Schema()); err != nil {
			return nil, err
		}
	}
	colIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	out := tbl.Clone()
	// Decryption is deterministic per value, so it rewrites the column
	// dictionary: one DecryptString per distinct ciphertext (fanned out
	// over workers), and rows remap by code.
	if _, err := out.MapColumnCtx(ctx, f.cfg.Workers, colIdx, func(token string) (string, error) {
		pt, err := cipher.DecryptString(token)
		if err != nil {
			return "", fmt.Errorf("core: identifier %q: %w: %w", token, err, ErrKeyMismatch)
		}
		return pt, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
