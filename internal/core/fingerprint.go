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

// FingerprintResult is one recipient's outcome of FingerprintContext.
type FingerprintResult struct {
	// RecipientID echoes the request.
	RecipientID string
	// KeyFingerprint is the non-secret digest of the recipient's key —
	// what the recipient registry stores to later verify a re-derived
	// key against.
	KeyFingerprint string
	// Protected is the recipient's marked copy: its table carries the
	// recipient-salted mark F(v, recipientID) under the recipient's key,
	// and its Plan/Provenance are what traceback detects against.
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

// Fingerprint is FingerprintContext under the background context.
func (f *Framework) Fingerprint(tbl *relation.Table, recipients []Recipient) ([]FingerprintResult, error) {
	return f.FingerprintContext(context.Background(), tbl, recipients)
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
	outs, err := f.fingerprintOutputs(ctx, tbl, recipients)
	if err != nil {
		return nil, err
	}
	prots, err := f.applyTable(ctx, tbl, outs)
	if err != nil {
		return nil, err
	}
	out := make([]FingerprintResult, len(recipients))
	for i, r := range recipients {
		out[i] = FingerprintResult{RecipientID: r.ID, KeyFingerprint: r.Key.Fingerprint(), Protected: prots[i]}
	}
	return out, nil
}

// fingerprintOutputs plans tbl once and derives one write output per
// recipient — the shared front half of the fingerprint entry points.
func (f *Framework) fingerprintOutputs(ctx context.Context, tbl *relation.Table, recipients []Recipient) ([]output, error) {
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
	outs := make([]output, len(recipients))
	for i, r := range recipients {
		rp, err := RecipientPlan(plan, r.ID)
		if err != nil {
			return nil, err
		}
		outs[i] = output{plan: rp, key: r.Key, recipient: r.ID}
	}
	return outs, nil
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

// FingerprintStreamed is one recipient's outcome of FingerprintStream:
// the effective plan and statistics of that recipient's copy — the copy
// itself went to the recipient's writer as CSV.
type FingerprintStreamed struct {
	RecipientID    string
	KeyFingerprint string
	// Streamed carries the recipient copy's effective plan, embedding
	// statistics and bin comparison.
	Streamed Streamed
}

// FingerprintStream is the bounded-memory fingerprint fan-out: the
// FingerprintContext write run over tbl.Segments(Config.Chunk), with
// each recipient's marked segments written through its own
// relation.SegmentWriter — so besides the source table, peak memory is
// one segment per copy, never N materialized tables. outs[i] receives
// recipient i's protected CSV, byte-identical to WriteCSV of the
// FingerprintContext copy, for every Config.Chunk.
//
// As with ApplyStream, the §5.1 boundary-permutation fallback cannot
// replay the written copies — FingerprintStream reports
// ErrUnsatisfiable instead (re-plan with Config.BoundaryPermutation, or
// use the in-memory FingerprintContext). On any error the CSV already
// written to the outs is partial and must be discarded by the caller.
func (f *Framework) FingerprintStream(ctx context.Context, tbl *relation.Table, recipients []Recipient, outs []io.Writer) ([]FingerprintStreamed, error) {
	if len(outs) != len(recipients) {
		return nil, fmt.Errorf("core: %d recipients but %d output writers: %w", len(recipients), len(outs), ErrBadConfig)
	}
	for i, out := range outs {
		if out == nil {
			return nil, fmt.Errorf("core: nil output writer for recipient %q: %w", recipients[i].ID, ErrBadConfig)
		}
	}
	outputs, err := f.fingerprintOutputs(ctx, tbl, recipients)
	if err != nil {
		return nil, err
	}
	writers := make([]*relation.SegmentWriter, len(outs))
	for i, out := range outs {
		writers[i] = relation.NewSegmentWriter(out, tbl.Schema())
		outputs[i].sink = writers[i].WriteSegment
	}
	p, err := f.write(ctx, tbl.Segments(f.cfg.Chunk), outputs, false)
	if err != nil {
		return nil, err
	}
	res := make([]FingerprintStreamed, len(recipients))
	for i, r := range recipients {
		if err := writers[i].Flush(); err != nil {
			return nil, err
		}
		st, err := applyVerdict(outputs[i].plan, p, i)
		if err != nil {
			return nil, outputs[i].wrap(err)
		}
		res[i] = FingerprintStreamed{RecipientID: r.ID, KeyFingerprint: r.Key.Fingerprint(), Streamed: *st}
	}
	return res, nil
}
