package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/binning"
	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/relation"
)

// PlanVersion is the serialization format version of Plan. ParsePlan
// rejects any other value: a plan is a frozen commitment between a
// protection run and every later append, so silent format drift is
// worse than a hard error.
const PlanVersion = 1

// Plan is the frozen outcome of the planning stage (PlanContext): the
// ownership mark, the searched per-column generalization frontiers and
// the effective watermark parameters — everything ApplyContext and
// AppendContext need to transform rows without repeating the binning
// search. It extends the Provenance record (which it embeds, and whose
// JSON fields it inlines) with the planning-only state:
//
//   - EffectiveK and MinGens pin the anonymity level and search floor;
//   - Suppress records the aggressive rule's deficient frontier values,
//     so suppression replays identically on later batches;
//   - ColumnLoss / AvgLoss carry the Equation (1)-(3) metrics;
//   - Bins / Rows record the published bin sizes after ApplyContext, the
//     baseline AppendContext verifies combined-bin k-safety against.
//
// A Plan is JSON-serializable and contains no key material. The plan
// returned by ApplyContext (Protected.Plan) is the one to retain: it
// carries the effective boundary-permutation decision and the published
// bin record.
type Plan struct {
	Provenance
	// FormatVersion is the plan serialization version (PlanVersion).
	FormatVersion int `json:"plan_version"`
	// EffectiveK is K+ε, the anonymity level the frontiers enforce.
	EffectiveK int `json:"effective_k"`
	// QuasiCols records the quasi-identifying columns in schema order —
	// the order the Bins keys are assembled in. Apply and Append require
	// their table's quasi columns to match it exactly: a reordered or
	// re-classified schema would silently void the bin bookkeeping.
	QuasiCols []string `json:"quasi_cols"`
	// MinGens records the per-column minimal generalization nodes the
	// search found (portable value form, like Provenance.Columns).
	MinGens map[string][]string `json:"min_gens,omitempty"`
	// Suppress records, per column, the deficient frontier values whose
	// rows the aggressive rule removed (empty under the conservative
	// rule). AppendContext replays the removal on every delta batch.
	Suppress map[string][]string `json:"suppress,omitempty"`
	// ColumnLoss and AvgLoss are the planned information-loss metrics.
	ColumnLoss map[string]float64 `json:"column_loss,omitempty"`
	AvgLoss    float64            `json:"avg_loss"`
	// Rows counts the published rows covered by Bins; Bins maps each
	// published bin (quasi-value combination of the marked table, keyed
	// as in anonymity.Bins) to its size. Both are zero until
	// ApplyContext runs and grow with every AppendContext.
	Rows int            `json:"rows,omitempty"`
	Bins map[string]int `json:"bins,omitempty"`
}

// Validate checks the plan's internal consistency — version, required
// fields, and cross-field fits. Every failure wraps ErrBadProvenance.
func (p *Plan) Validate() error {
	if p.FormatVersion != PlanVersion {
		return fmt.Errorf("core: plan version %d, want %d: %w", p.FormatVersion, PlanVersion, ErrBadProvenance)
	}
	if p.K < 1 {
		return fmt.Errorf("core: plan K must be >= 1, got %d: %w", p.K, ErrBadProvenance)
	}
	if p.EffectiveK < p.K {
		return fmt.Errorf("core: plan effective k %d below K %d: %w", p.EffectiveK, p.K, ErrBadProvenance)
	}
	if p.IdentCol == "" {
		return fmt.Errorf("core: plan names no identifying column: %w", ErrBadProvenance)
	}
	if _, err := bitstr.FromString(p.Mark); err != nil {
		return fmt.Errorf("core: plan mark: %w: %w", err, ErrBadProvenance)
	}
	if p.Duplication < 1 {
		return fmt.Errorf("core: plan duplication must be >= 1, got %d: %w", p.Duplication, ErrBadProvenance)
	}
	if p.Quantum <= 0 {
		return fmt.Errorf("core: plan quantum must be positive, got %v: %w", p.Quantum, ErrBadProvenance)
	}
	if len(p.Columns) == 0 {
		return fmt.Errorf("core: plan has no column frontiers: %w", ErrBadProvenance)
	}
	if len(p.QuasiCols) != len(p.Columns) {
		return fmt.Errorf("core: plan records %d quasi columns but %d column frontiers: %w",
			len(p.QuasiCols), len(p.Columns), ErrBadProvenance)
	}
	for _, col := range p.QuasiCols {
		if _, ok := p.Columns[col]; !ok {
			return fmt.Errorf("core: plan quasi column %s has no frontier record: %w", col, ErrBadProvenance)
		}
	}
	for col := range p.MinGens {
		if _, ok := p.Columns[col]; !ok {
			return fmt.Errorf("core: plan min_gens column %s has no frontier record: %w", col, ErrBadProvenance)
		}
	}
	for col := range p.Suppress {
		if _, ok := p.Columns[col]; !ok {
			return fmt.Errorf("core: plan suppress column %s has no frontier record: %w", col, ErrBadProvenance)
		}
	}
	if p.Rows < 0 {
		return fmt.Errorf("core: plan rows must be >= 0, got %d: %w", p.Rows, ErrBadProvenance)
	}
	return nil
}

// MarshalPlan serializes a plan as indented JSON — the format ParsePlan
// accepts and the medprotect CLI writes to plan files.
func MarshalPlan(p *Plan) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(p, "", "  ")
}

// ParsePlan deserializes and validates a plan document. Unknown fields,
// trailing data, a version other than PlanVersion and any field
// inconsistency are rejected with an error wrapping ErrBadProvenance —
// a plan is replayed against live data, so a half-understood document
// must not pass.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w: %w", err, ErrBadProvenance)
	}
	if dec.More() {
		return nil, fmt.Errorf("core: trailing data after plan document: %w", ErrBadProvenance)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Plan is PlanContext under the background context.
func (f *Framework) Plan(tbl *relation.Table, key crypt.WatermarkKey) (*Plan, error) {
	return f.PlanContext(context.Background(), tbl, key)
}

// PlanContext runs the planning half of the Figure 2 pipeline: derive
// the ownership mark wm = F(v) from the clear-text identifiers (§5.4)
// and search the binning frontiers satisfying k-anonymity (+ε) under
// the usage metrics (Section 4), including the AutoEpsilon re-binning
// pass (Section 6). It performs no table transform — the input is never
// modified — and returns a serializable Plan that ApplyContext (same
// table) or AppendContext (later delta batches) execute without
// repeating the search. ProtectContext is exactly PlanContext followed
// by ApplyContext.
//
// The search runs over a binning.Sketch of the table, shared with
// PlanStream: its cost scales with distinct quasi-tuples, not rows.
func (f *Framework) PlanContext(ctx context.Context, tbl *relation.Table, key crypt.WatermarkKey) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	identCol, err := f.identCol(tbl.Schema())
	if err != nil {
		return nil, err
	}

	// Ownership mark from the clear-text identifying column (§5.4).
	mark, v, err := ownershipMark(tbl, identCol, f.cfg.Quantum, f.cfg.MarkBits)
	if err != nil {
		return nil, err
	}

	sk, err := binning.NewSketch(tbl.Schema(), f.trees)
	if err != nil {
		return nil, err
	}
	if err := sk.Add(tbl); err != nil {
		return nil, err
	}
	return f.planFromSketch(ctx, sk, tbl.Schema().QuasiColumns(), identCol, mark, v)
}

// planFromSketch is the planning core PlanContext and PlanStream share:
// the frontier search (optionally twice, for the conservative ε) over a
// quasi-tuple sketch, frozen into a Plan.
func (f *Framework) planFromSketch(ctx context.Context, sk *binning.Sketch, quasiCols []string, identCol string, mark bitstr.Bits, v float64) (*Plan, error) {
	binCfg := binning.Config{
		K:          f.cfg.K,
		Epsilon:    f.cfg.Epsilon,
		Trees:      f.trees,
		MaxGens:    f.cfg.MaxGens,
		Metrics:    f.cfg.Metrics,
		Strategy:   f.cfg.Strategy,
		EnumLimit:  f.cfg.EnumLimit,
		Aggressive: f.cfg.Aggressive,
		Workers:    f.cfg.Workers,
	}
	search, err := binning.SearchSketch(ctx, sk, binCfg)
	if err != nil {
		return nil, err
	}
	if f.cfg.AutoEpsilon {
		bins, err := search.GeneralizedBins(quasiCols, search.UltiGens)
		if err != nil {
			return nil, err
		}
		eps := binning.EpsilonForMark(bins, f.cfg.MarkBits*f.cfg.Duplication)
		if eps > binCfg.Epsilon {
			binCfg.Epsilon = eps
			if search, err = binning.SearchSketch(ctx, sk, binCfg); err != nil {
				return nil, fmt.Errorf("core: re-binning at k+ε=%d: %w", f.cfg.K+eps, err)
			}
		}
	}

	plan := &Plan{
		Provenance: Provenance{
			IdentCol:               identCol,
			K:                      f.cfg.K,
			Epsilon:                binCfg.Epsilon,
			Mark:                   mark.String(),
			V:                      v,
			Quantum:                f.cfg.Quantum,
			Duplication:            f.cfg.Duplication,
			WeightedVoting:         f.cfg.WeightedVoting,
			SaltPositionWithColumn: f.cfg.SaltPositionWithColumn,
			BoundaryPermutation:    f.cfg.BoundaryPermutation,
			Columns:                make(map[string]ColumnProvenance, len(search.UltiGens)),
		},
		FormatVersion: PlanVersion,
		EffectiveK:    search.EffectiveK,
		QuasiCols:     quasiCols,
		MinGens:       genSetValues(search.MinGens),
		Suppress:      search.SuppressValues,
		ColumnLoss:    search.ColumnLoss,
		AvgLoss:       search.AvgLoss,
	}
	for col, ulti := range search.UltiGens {
		plan.Columns[col] = ColumnProvenance{
			Ulti: ulti.Values(),
			Max:  search.MaxGens[col].Values(),
		}
	}
	return plan, nil
}

// genSetValues converts per-column frontiers to the portable value form.
func genSetValues(gens map[string]dht.GenSet) map[string][]string {
	if len(gens) == 0 {
		return nil
	}
	out := make(map[string][]string, len(gens))
	for col, g := range gens {
		out[col] = g.Values()
	}
	return out
}

// checkQuasiCols requires the table's quasi-identifying columns to
// match the plan's recorded set and order exactly. The published bin
// keys are assembled in quasi-column order, so a reordered or
// re-classified schema (a quasi column demoted to "other", say) would
// silently break the k-safety bookkeeping rather than fail — hence a
// hard ErrBadSchema here.
func checkQuasiCols(schema *relation.Schema, plan *Plan) error {
	quasi := schema.QuasiColumns()
	if len(quasi) != len(plan.QuasiCols) {
		return fmt.Errorf("core: table has quasi columns %v but the plan records %v: %w",
			quasi, plan.QuasiCols, ErrBadSchema)
	}
	for i, col := range quasi {
		if plan.QuasiCols[i] != col {
			return fmt.Errorf("core: table has quasi columns %v but the plan records %v (order matters — bin keys follow it): %w",
				quasi, plan.QuasiCols, ErrBadSchema)
		}
	}
	return nil
}

// minGensFromPlan rebuilds the minimal-frontier GenSets recorded in the
// plan (an empty map when the plan carries none).
func (f *Framework) minGensFromPlan(plan *Plan) (map[string]dht.GenSet, error) {
	out := make(map[string]dht.GenSet, len(plan.MinGens))
	for col, values := range plan.MinGens {
		tree, ok := f.trees[col]
		if !ok {
			return nil, fmt.Errorf("core: no tree for column %s: %w", col, ErrBadProvenance)
		}
		g, err := dht.NewGenSetFromValues(tree, values)
		if err != nil {
			return nil, fmt.Errorf("core: column %s min nodes: %w: %w", col, err, ErrBadProvenance)
		}
		out[col] = g
	}
	return out, nil
}
