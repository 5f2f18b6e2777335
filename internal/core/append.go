package core

import (
	"context"

	"repro/internal/crypt"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Appended is the outcome of AppendContext: the protected delta batch
// plus the advanced plan.
type Appended struct {
	// Table holds the delta rows, binned to the planned frontiers and
	// carrying the planned mark — ready to append to the published
	// table (relation.Table.AppendTable, or a CSV append).
	Table *relation.Table
	// Plan is the advanced plan: Bins and Rows now include the delta.
	// Retain it in place of the input plan for the next append.
	Plan Plan
	// Embed exposes the watermarking agent's statistics for the delta.
	Embed watermark.EmbedStats
	// NewBins counts published bins this batch created (value
	// combinations absent from the plan's bin record).
	NewBins int
	// Suppressed counts delta rows removed by the plan's recorded
	// aggressive-rule suppression (0 under the conservative rule).
	Suppressed int
}

// Append is AppendContext under the background context.
func (f *Framework) Append(delta *relation.Table, plan *Plan, key crypt.WatermarkKey) (*Appended, error) {
	return f.AppendContext(context.Background(), delta, plan, key)
}

// AppendContext protects a new batch of rows under an existing plan —
// the incremental-ingestion path: the repository already published a
// protected table (ApplyContext filled the plan's bin record) and new
// patient records have arrived since. Each delta row is resolved to the
// planned leaves, its identifier encrypted, its quasi values generalized
// to the planned frontiers, and the same mark embedded with the same
// per-value hash addressing — so DetectContext over the union of old
// and new rows still votes on the same wmd positions. No binning search
// runs: appending a batch costs one transform plus one embed. It is the
// write loop of AppendStream over the delta as a single segment.
//
// Safety: the published union must keep every bin at or above k. Rows
// joining bins the plan already published only grow them; a value
// combination the plan has never published must arrive with at least K
// rows of its own. AppendContext verifies this on the marked delta and
// returns an error wrapping ErrPlanDrift — as it does for delta values
// that fall outside the planned frontiers — when the batch no longer
// fits the frozen plan; the caller should then re-plan over the
// combined table rather than force the append. The §5.1 fallback never
// triggers here: the plan's boundary-permutation decision is frozen.
//
// The input delta is not modified. On success, publish Appended.Table
// (append its rows to the outsourced copy) and retain Appended.Plan for
// the next batch.
func (f *Framework) AppendContext(ctx context.Context, delta *relation.Table, plan *Plan, key crypt.WatermarkKey) (*Appended, error) {
	var marked *relation.Table
	p, err := f.write(ctx, &oneSegment{tbl: delta}, []output{{plan: plan, key: key, sink: keep(&marked)}}, true)
	if err != nil {
		return nil, err
	}
	res, err := appendVerdict(plan, p)
	if err != nil {
		return nil, err
	}
	return &Appended{
		Table:      marked,
		Plan:       res.Plan,
		Embed:      res.Embed,
		NewBins:    res.NewBins,
		Suppressed: res.Suppressed,
	}, nil
}
