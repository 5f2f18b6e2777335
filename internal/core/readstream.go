package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/pool"
	"repro/internal/watermark"
)

// This file is the one read path of the pipeline: detection and
// traceback over a Segments source. DetectContext and TracebackContext
// run these loops over their table as a single segment. The voting
// walks of Figure 9 are segmentation-safe — every vote carries integer
// weight 1 and lands on a position derived only from the tuple's
// encrypted identifier — so per-segment walks accumulated into one
// persistent vote board, folded once at end-of-stream, give the same
// verdict for every segmentation while the resident row set stays
// bounded by the segment size.

// DetectStreamed is DetectStream's report: the Detection verdict plus
// ingest counters.
type DetectStreamed struct {
	Detection
	// Rows and Segments count the consumed suspect input.
	Rows, Segments int
}

// DetectStream recovers the mark from a suspect table consumed
// segment-at-a-time: each segment's per-distinct-value verdict tables
// are built, its votes harvested into one persistent replicated board,
// and the segment dropped — so peak memory is bounded by the segment
// size, not the suspect size. The recovered mark, confidences,
// statistics and match verdict are bit-identical to watermark.Detect
// over the concatenation of the segments, for every segment size and
// worker count.
func (f *Framework) DetectStream(ctx context.Context, src Segments, prov Provenance, key crypt.WatermarkKey) (*DetectStreamed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil segment source: %w", ErrBadConfig)
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	if _, err := src.Schema().Index(prov.IdentCol); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}
	columns, err := f.SpecsFromProvenance(prov)
	if err != nil {
		return nil, err
	}
	params, err := paramsFromProvenance(prov, key)
	if err != nil {
		return nil, err
	}
	params.Workers = f.cfg.Workers
	accum, err := watermark.NewDetectAccum(prov.IdentCol, columns, params)
	if err != nil {
		return nil, err
	}

	out := &DetectStreamed{}
	for {
		seg, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading segment %d: %w", out.Segments, err)
		}
		if err := accum.AddContext(ctx, seg); err != nil {
			return nil, err
		}
		out.Rows += seg.NumRows()
		out.Segments++
		reportProgress(ctx, Progress{Stage: "detect", Done: out.Rows})
	}

	res, err := accum.Result()
	if err != nil {
		return nil, err
	}
	loss, err := params.Mark.LossFraction(res.Mark)
	if err != nil {
		return nil, err
	}
	out.Detection = Detection{Result: res, MarkLoss: loss, Match: loss <= f.cfg.LossThreshold}
	return out, nil
}

// TracebackStreamed is TracebackStream's report: the ranked Traceback
// plus ingest counters.
type TracebackStreamed struct {
	Traceback
	// Rows and Segments count the consumed suspect input.
	Rows, Segments int
}

// TracebackStream ranks the registered recipients against a suspect
// consumed segment-at-a-time. Per segment it rebuilds the shared
// suspect-side state — one verdict-table set per distinct
// frontier/policy group, one Equation (5) selection per distinct
// (K1, η) pair — then walks every candidate's votes into that
// candidate's persistent replicated board. Boards fold once at
// end-of-stream, so resident state between segments is |candidates|
// boards of |wmd| positions while the verdict tables and selections
// stay segment-bounded.
//
// Verdicts, ranking, culprit and match ratios are the same for every
// segment size and worker count, and each verdict is bit-identical to
// DetectStream under that candidate's provenance and key.
func (f *Framework) TracebackStream(ctx context.Context, src Segments, candidates []Candidate) (*TracebackStreamed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil segment source: %w", ErrBadConfig)
	}
	if err := validateCandidates(candidates); err != nil {
		return nil, err
	}

	// Persistent per-candidate state (parameters, group signature,
	// selection key, vote board, counters) plus one spec set and one
	// representative candidate per distinct suspect signature.
	params := make([]watermark.Params, len(candidates))
	sigs := make([]string, len(candidates))
	selKeys := make([]string, len(candidates))
	boards := make([]*bitstr.VoteBoard, len(candidates))
	stats := make([]watermark.DetectStats, len(candidates))
	columnsOf := make(map[string]map[string]watermark.ColumnSpec)
	repOf := make(map[string]int)
	for i, c := range candidates {
		p, err := paramsFromProvenance(c.Provenance, c.Key)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.ID, err)
		}
		params[i] = p
		sigs[i] = suspectSignature(c.Provenance)
		selKeys[i] = string(c.Key.K1) + "\x00" + strconv.FormatUint(c.Key.Eta, 10)
		boards[i] = bitstr.NewVoteBoard(p.WmdLen())
		if _, ok := repOf[sigs[i]]; !ok {
			columns, err := f.SpecsFromProvenance(c.Provenance)
			if err != nil {
				return nil, fmt.Errorf("core: candidate %q: %w", c.ID, err)
			}
			columnsOf[sigs[i]] = columns
			repOf[sigs[i]] = i
		}
	}

	out := &TracebackStreamed{}
	for {
		seg, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading segment %d: %w", out.Segments, err)
		}
		// Segment-scoped shared state: verdict tables per group,
		// selections per distinct (K1, η) within a group.
		states := make(map[string]*watermark.Suspect, len(repOf))
		for sig, rep := range repOf {
			c := candidates[rep]
			state, err := watermark.PrepareSuspectContext(ctx, seg, c.Provenance.IdentCol, columnsOf[sig],
				params[rep].BoundaryPermutation, params[rep].WeightedVoting, f.cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("core: candidate %q: %w: %w", c.ID, err, ErrBadSchema)
			}
			states[sig] = state
		}
		sels := make(map[string]map[string]*watermark.Selection, len(repOf))
		for i, c := range candidates {
			m := sels[sigs[i]]
			if m == nil {
				m = make(map[string]*watermark.Selection)
				sels[sigs[i]] = m
			}
			if _, ok := m[selKeys[i]]; !ok {
				sel, err := states[sigs[i]].SelectContext(ctx, c.Key.K1, c.Key.Eta, f.cfg.Workers)
				if err != nil {
					return nil, err
				}
				m[selKeys[i]] = sel
			}
		}
		// The per-candidate vote walks fan out over the pool: each
		// candidate owns its board and counters, so worker count cannot
		// change the tallies.
		err = pool.ForEachCtx(ctx, f.cfg.Workers, len(candidates), func(i int) error {
			if err := states[sigs[i]].AccumulateContext(ctx, sels[sigs[i]][selKeys[i]], params[i], boards[i], &stats[i]); err != nil {
				return fmt.Errorf("core: candidate %q: %w", candidates[i].ID, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Rows += seg.NumRows()
		out.Segments++
		reportProgress(ctx, Progress{Stage: "traceback", Done: out.Rows})
	}

	// Fold each candidate's accumulated board into its verdict.
	verdicts := make([]TracebackVerdict, len(candidates))
	for i, c := range candidates {
		folded, err := boards[i].FoldInto(params[i].Mark.Len())
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.ID, err)
		}
		mark := folded.Resolve()
		loss, err := params[i].Mark.LossFraction(mark)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.ID, err)
		}
		verdicts[i] = TracebackVerdict{
			RecipientID: c.ID,
			Mark:        mark.String(),
			MarkLoss:    loss,
			MatchRatio:  1 - loss,
			Match:       loss <= f.cfg.LossThreshold,
			Confidence:  meanConfidence(folded.Confidence()),
			VotesCast:   stats[i].VotesCast,
		}
	}
	out.Traceback = *rankVerdicts(verdicts)
	return out, nil
}
