package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Segments is the segment source every pipeline loop consumes: a
// sequence of bounded *relation.Table segments over one schema,
// terminated by io.EOF. relation.SegmentReader (CSV ingest),
// relation.TableSegments (an in-memory table in bounded segments) and
// relation.OneSegment (an in-memory table whole) all satisfy it.
//
// Ownership: Next hands each segment over to the loop that consumes
// it. The write loop (ApplyStream, AppendStream, FingerprintStream)
// rewrites its segments in place — suppression replay, identifier
// encryption, generalization and the mark of one output — and passes
// them on to its sink, so a source must yield a segment nobody else
// reads or writes: a fresh Table per call, as SegmentReader and
// TableSegments do, and never the caller's table through OneSegment
// (the in-memory forms copy the table before they do). Segments may
// share dictionary backing (as SegmentReader's do): a segment's
// dictionaries are capacity-capped views, and the loop replaces rather
// than edits a dictionary it rewrites, so the shared backing stays
// intact. The read loops (DetectStream, TracebackStream) and PlanStream
// only read their segments.
//
// Concurrency: every segment loop reads its source one segment ahead,
// so Next may run on a helper goroutine while the caller's goroutine
// processes the previous segment. Next is called one call at a time, in
// order, never again after it returned an error (io.EOF included), and
// never after the stream call that consumes the source has returned:
// state the source keeps (row counters, byte meters, a request body) is
// the caller's again once that call returns.
type Segments interface {
	Schema() *relation.Schema
	Next() (*relation.Table, error)
}

// Streamed is the outcome of every write run: the effective or
// advanced plan and the run's statistics. The stream forms return it
// alone, their marked rows having gone to a writer; the in-memory forms
// return it inside Protected, beside the marked table.
type Streamed struct {
	// Plan is the effective (apply, fingerprint) or advanced (append)
	// plan: the input plan with the §5.1 boundary-permutation decision
	// taken and the published bin record (Bins/Rows) filled in. Retain
	// it in place of the input plan for the next append.
	Plan Plan
	// Embed accumulates the watermarking agent's statistics over every
	// segment.
	Embed watermark.EmbedStats
	// BinStats compares the combined bins before and after watermarking
	// (apply and fingerprint runs only).
	BinStats anonymity.Stats
	// Rows and Segments count the protected output.
	Rows, Segments int
	// NewBins counts published bins the appended batch created (value
	// combinations absent from the plan's bin record; append runs only).
	NewBins int
	// Suppressed counts rows removed by the plan's recorded
	// aggressive-rule suppression.
	Suppressed int
}

// ApplyStream executes a plan segment-at-a-time: each segment from src
// is suppressed (per the plan's record), transformed to the planned
// frontiers, watermarked, and written to out as CSV — so peak memory is
// bounded by the segment size, not the table size. The frozen plan
// makes the whole transform a pure per-row function, so the CSV is the
// same for every segment size and worker count, and ApplyContext is
// this loop over one segment.
//
// The verdicts run at end-of-stream on the combined bins: the planned
// k+ε floor, the no-bandwidth error, and the seamlessness guarantee.
// The §5.1 boundary-permutation fallback is decided from the plan's
// frontiers before the first segment, so ApplyStream takes it exactly
// where ApplyContext does and records it in the effective plan.
//
// On any error the CSV already written to out is partial and must be
// discarded by the caller.
func (f *Framework) ApplyStream(ctx context.Context, src Segments, plan *Plan, key crypt.WatermarkKey, out io.Writer) (*Streamed, error) {
	return f.writeStream(ctx, src, plan, key, out, false)
}

// AppendStream protects a new batch of rows under an existing plan,
// segment-at-a-time — AppendContext with bounded memory: each segment
// is suppressed, transformed, watermarked and written to out as CSV,
// and the combined-bin k-safety verdict is issued at end-of-stream over
// the union of all segments.
//
// On any error — including the end-of-stream ErrPlanDrift verdict — the
// CSV already written to out is partial (or unsafe to publish) and must
// be discarded by the caller.
func (f *Framework) AppendStream(ctx context.Context, src Segments, plan *Plan, key crypt.WatermarkKey, out io.Writer) (*Streamed, error) {
	return f.writeStream(ctx, src, plan, key, out, true)
}

// writeStream runs the write loop with one CSV SegmentWriter sink,
// closed by its verdict.
func (f *Framework) writeStream(ctx context.Context, src Segments, plan *Plan, key crypt.WatermarkKey, out io.Writer, appending bool) (*Streamed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil segment source: %w", ErrBadConfig)
	}
	sw := relation.NewSegmentWriter(out, src.Schema())
	p, err := f.write(ctx, src, []output{{plan: plan, key: key, sink: sw.WriteSegment}}, appending)
	if err != nil {
		return nil, err
	}
	if err := sw.Flush(); err != nil {
		return nil, err
	}
	return verdict(p, appending)
}

// PlannedStream is the outcome of PlanStream: the plan plus ingest
// counters.
type PlannedStream struct {
	// Plan is byte-identical (MarshalPlan) to the plan PlanContext
	// would produce over the materialized concatenation of the
	// segments.
	Plan *Plan
	// Rows and Segments count the consumed input.
	Rows, Segments int
}

// PlanStream computes a protection plan in one pass over a segment
// source with memory bounded by the number of distinct quasi-tuples,
// not rows: each segment is folded into a binning.Sketch (per-column
// leaf histograms plus a joint quasi-tuple count table) and an
// ownership.StatAccum over the identifying column, then discarded,
// while the next segment is read ahead (pipe.go). The frontier search,
// the aggressive-rule suppression replay and the conservative-ε
// re-search (binning.SearchAutoEpsilon) all run over one
// binning.SearchSetup holding a copy of the sketch's tuples — the
// sketch is released before the ascent — and produce exactly the plan
// PlanContext would: the paper's planning pass without ever
// materializing the table.
func (f *Framework) PlanStream(ctx context.Context, src Segments, key crypt.WatermarkKey) (*PlannedStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil segment source: %w", ErrBadConfig)
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	schema := src.Schema()
	identCol, err := f.identCol(schema)
	if err != nil {
		return nil, err
	}
	identIdx, err := schema.Index(identCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}
	sk, err := binning.NewSketch(schema, f.trees)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}

	var accum ownership.StatAccum
	res := &PlannedStream{}
	ahead := readAhead(src)
	defer ahead.close()
	for {
		seg, err := ahead.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading segment %d: %w", res.Segments, err)
		}
		if err := sk.Add(seg); err != nil {
			return nil, err
		}
		dict := seg.DictValues(identIdx)
		for _, code := range seg.Codes(identIdx) {
			accum.Add(dict[code])
		}
		res.Rows += seg.NumRows()
		res.Segments++
		reportProgress(ctx, Progress{Stage: "plan", Done: res.Rows})
	}

	// Ownership mark from the accumulated identifying column (§5.4),
	// numerically identical to the materialized computation: the
	// accumulator folds values in row order.
	v, err := accum.Statistic()
	if err != nil {
		return nil, fmt.Errorf("core: deriving ownership mark: %w: %w", err, ErrBadSchema)
	}
	mark, err := ownership.MarkFromStatistic(v, f.cfg.Quantum, f.cfg.MarkBits)
	if err != nil {
		return nil, fmt.Errorf("core: deriving ownership mark: %w: %w", err, ErrBadSchema)
	}

	plan, err := f.planFromSketch(ctx, sk, schema.QuasiColumns(), identCol, mark, v)
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	return res, nil
}
