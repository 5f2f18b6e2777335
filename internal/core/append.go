package core

import (
	"context"

	"repro/internal/crypt"
	"repro/internal/relation"
)

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
// The input delta is not modified. On success, publish Protected.Table
// (append its rows to the outsourced copy) and retain Protected.Plan —
// the advanced plan, whose Bins and Rows include the delta — for the
// next batch.
func (f *Framework) AppendContext(ctx context.Context, delta *relation.Table, plan *Plan, key crypt.WatermarkKey) (*Protected, error) {
	return f.writeTable(ctx, delta, plan, key, true)
}
