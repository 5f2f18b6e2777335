package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/ownership"
	"repro/internal/relation"
)

// Recipient names one party a marked copy is outsourced to, together
// with the key set that copy is embedded under. Keys are usually derived
// from the owner's master secret with crypt.RecipientWatermarkKey, which
// shares the selection key K1 across recipients so a later traceback
// pays the suspect-table selection scan once for all of them.
type Recipient struct {
	// ID is the stable recipient identifier (a hospital code, a partner
	// name). It salts the recipient's mark and addresses the registry.
	ID string
	// Key is the recipient copy's watermarking key set.
	Key crypt.WatermarkKey
}

// FingerprintResult is one recipient's outcome of FingerprintContext
// or FingerprintStream.
type FingerprintResult struct {
	// RecipientID echoes the request.
	RecipientID string
	// KeyFingerprint is the non-secret digest of the recipient's key —
	// what the recipient registry stores to later verify a re-derived
	// key against.
	KeyFingerprint string
	// Protected is the recipient's marked copy: its table carries the
	// recipient-salted mark F(v, recipientID) under the recipient's key,
	// and its Plan/Provenance are what traceback detects against. Its
	// Table is nil from FingerprintStream, whose copy went to the
	// recipient's writer as CSV.
	Protected *Protected
}

// RecipientPlan derives one recipient's plan from a base plan: the same
// frozen frontiers, suppression record, statistic and watermark
// parameters, with the mark replaced by the recipient-salted commitment
// F(v, recipientID). Applying it needs no binning search.
func RecipientPlan(base *Plan, recipientID string) (*Plan, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil plan: %w", ErrBadProvenance)
	}
	if recipientID == "" {
		return nil, fmt.Errorf("core: empty recipient ID: %w", ErrBadConfig)
	}
	baseMark, err := bitstr.FromString(base.Mark)
	if err != nil {
		return nil, fmt.Errorf("core: plan mark: %w: %w", err, ErrBadProvenance)
	}
	mark, err := ownership.MarkFromStatisticSalted(base.V, base.Quantum, baseMark.Len(), recipientID)
	if err != nil {
		return nil, fmt.Errorf("core: deriving recipient mark: %w: %w", err, ErrBadProvenance)
	}
	rp := *base
	rp.Mark = mark.String()
	return &rp, nil
}

// FingerprintContext protects one source table for N recipients — the
// paper's motivating outsourcing scenario, where the owner hands a
// marked copy to every partner and later asks whose copy a leak came
// from. The binning search runs once (PlanContext); then one write run
// over the table transforms it once per distinct encryption key (once,
// when the keys come from crypt.RecipientWatermarkKey), selects once
// per distinct (K1, η), and embeds each recipient's salted mark
// F(v, recipientID) under the recipient's key. All copies share the
// frontiers, the encrypted identifiers and the published bin record —
// only the watermark differs — so any copy remains detectable and
// appendable under its own plan, and every copy is byte-identical to a
// standalone ApplyContext under the same recipient plan and key.
//
// Register each result (internal/registry) to enable TracebackContext
// on a leaked table later.
func (f *Framework) FingerprintContext(ctx context.Context, tbl *relation.Table, recipients []Recipient) ([]FingerprintResult, error) {
	return f.fingerprint(ctx, tbl, recipients, nil)
}

// fingerprint plans tbl once and runs one write over it with an output
// per recipient — the shared body of the fingerprint entry points. With
// outs nil a copy of the table is one segment and every marked copy is
// kept; otherwise it goes in Config.Chunk segments and copy i to
// outs[i] as CSV. Either way the write loop rewrites segments of its
// own, never tbl.
func (f *Framework) fingerprint(ctx context.Context, tbl *relation.Table, recipients []Recipient, outs []io.Writer) ([]FingerprintResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateRecipients(recipients); err != nil {
		return nil, err
	}
	reportProgress(ctx, Progress{Stage: "plan", Done: 0})
	plan, err := f.PlanContext(ctx, tbl, recipients[0].Key)
	if err != nil {
		return nil, err
	}
	var src Segments = &relation.OneSegment{Table: tbl.Clone()}
	if outs != nil {
		src = tbl.Segments(f.cfg.Chunk)
	}
	outputs := make([]output, len(recipients))
	kept := make([]*relation.Table, len(recipients))
	writers := make([]*relation.SegmentWriter, len(outs))
	for i, r := range recipients {
		rp, err := RecipientPlan(plan, r.ID)
		if err != nil {
			return nil, err
		}
		outputs[i] = output{plan: rp, key: r.Key, recipient: r.ID, sink: keep(&kept[i])}
		if outs != nil {
			writers[i] = relation.NewSegmentWriter(outs[i], tbl.Schema())
			outputs[i].sink = writers[i].WriteSegment
		}
	}
	p, err := f.write(ctx, src, outputs, false)
	if err != nil {
		return nil, err
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	res := make([]FingerprintResult, len(recipients))
	for i, r := range recipients {
		st, err := applyVerdict(p, i)
		if err != nil {
			return nil, outputs[i].wrap(err)
		}
		res[i] = FingerprintResult{RecipientID: r.ID, KeyFingerprint: r.Key.Fingerprint(),
			Protected: &Protected{Table: kept[i], Provenance: st.Plan.Provenance, Streamed: *st}}
	}
	return res, nil
}

// validateRecipients rejects empty, duplicate or badly-keyed recipient
// sets — the shared front door of the fingerprint entry points.
func validateRecipients(recipients []Recipient) error {
	if len(recipients) == 0 {
		return fmt.Errorf("core: no recipients: %w", ErrBadConfig)
	}
	seen := make(map[string]bool, len(recipients))
	for i, r := range recipients {
		if r.ID == "" {
			return fmt.Errorf("core: recipient %d has an empty ID: %w", i, ErrBadConfig)
		}
		if seen[r.ID] {
			return fmt.Errorf("core: duplicate recipient ID %q: %w", r.ID, ErrBadConfig)
		}
		seen[r.ID] = true
		if err := r.Key.Validate(); err != nil {
			return fmt.Errorf("core: recipient %q: %w: %w", r.ID, err, ErrBadKey)
		}
	}
	return nil
}

// FingerprintStream is the bounded-memory fingerprint fan-out: the
// FingerprintContext write run over tbl.Segments(Config.Chunk), with
// each recipient's marked segments written through its own
// relation.SegmentWriter — so besides the source table, peak memory is
// one segment per copy, never N materialized tables. outs[i] receives
// recipient i's protected CSV, byte-identical to WriteCSV of the
// FingerprintContext copy, for every Config.Chunk; the results are
// FingerprintContext's with a nil Protected.Table.
//
// The §5.1 boundary-permutation fallback is decided from the shared
// frontiers before the first segment, as in FingerprintContext. On any
// error the CSV already written to the outs is partial and must be
// discarded by the caller.
func (f *Framework) FingerprintStream(ctx context.Context, tbl *relation.Table, recipients []Recipient, outs []io.Writer) ([]FingerprintResult, error) {
	if len(outs) != len(recipients) {
		return nil, fmt.Errorf("core: %d recipients but %d output writers: %w", len(recipients), len(outs), ErrBadConfig)
	}
	for i, out := range outs {
		if out == nil {
			return nil, fmt.Errorf("core: nil output writer for recipient %q: %w", recipients[i].ID, ErrBadConfig)
		}
	}
	return f.fingerprint(ctx, tbl, recipients, outs)
}
