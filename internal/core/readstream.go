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

// This file is the one read path of the pipeline: detection, traceback
// and the dispute's step (4) share one segment loop, readVotes.
// DetectStream is that loop over one candidate; DetectContext,
// TracebackContext and DisputeContext run it over their table as a
// single segment. Per
// segment the loop prepares the suspect once per signature group,
// selects once per (K1, η) within a group and walks each candidate's
// selection into that candidate's persistent vote board; boards fold
// once at end of stream. The voting walks of Figure 9 are
// segmentation-safe — every vote carries integer weight 1 and lands on
// a position derived only from the tuple's encrypted identifier — so
// the verdict is the same for every segmentation while the resident row
// set stays bounded by the segment size.

// DetectStreamed is DetectStream's report: the Detection verdict plus
// ingest counters.
type DetectStreamed struct {
	Detection
	// Rows and Segments count the consumed suspect input.
	Rows, Segments int
}

// DetectStream recovers the mark from a suspect table consumed
// segment-at-a-time: it is the traceback loop over one candidate, so
// each segment is prepared, selected and walked into one persistent
// replicated board, then dropped — peak memory is bounded by the
// segment size, not the suspect size. The recovered mark, confidences,
// statistics and match verdict are bit-identical to a
// watermark.DetectAccum fed the same segments, for every segment size and
// worker count. A suspect that lacks the identifying column or a
// watermarked column is refused with ErrBadSchema.
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
	if err := prov.Validate(); err != nil {
		return nil, err
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
	r := newReader("core: detect", "", prov, key, columns, params)
	out := &DetectStreamed{}
	if out.Rows, out.Segments, err = f.readVotes(ctx, src, []*reader{r}, "detect"); err != nil {
		return nil, err
	}
	if out.Detection, err = r.detection(f.cfg.LossThreshold); err != nil {
		return nil, err
	}
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
// consumed segment-at-a-time through readVotes: the suspect-side state
// — one verdict-table set per distinct frontier/policy group, one
// Equation (5) selection per distinct (K1, η) pair — is rebuilt per
// segment and shared, and every candidate's votes are walked into that
// candidate's persistent replicated board. Resident state between
// segments is |candidates| boards of |wmd| positions.
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
	readers := make([]*reader, len(candidates))
	columnsOf := make(map[string]map[string]watermark.ColumnSpec)
	for i, c := range candidates {
		label := fmt.Sprintf("core: candidate %q", c.ID)
		params, err := paramsFromProvenance(c.Provenance, c.Key)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		// Candidates with equal signatures share one spec set and, per
		// segment, one prepared suspect.
		sig := suspectSignature(c.Provenance)
		columns, ok := columnsOf[sig]
		if !ok {
			if columns, err = f.SpecsFromProvenance(c.Provenance); err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			columnsOf[sig] = columns
		}
		readers[i] = newReader(label, sig, c.Provenance, c.Key, columns, params)
	}

	out := &TracebackStreamed{}
	var err error
	if out.Rows, out.Segments, err = f.readVotes(ctx, src, readers, "traceback"); err != nil {
		return nil, err
	}
	verdicts := make([]TracebackVerdict, len(candidates))
	for i, r := range readers {
		d, err := r.detection(f.cfg.LossThreshold)
		if err != nil {
			return nil, err
		}
		verdicts[i] = TracebackVerdict{
			RecipientID: candidates[i].ID,
			Mark:        d.Result.Mark.String(),
			MarkLoss:    d.MarkLoss,
			MatchRatio:  1 - d.MarkLoss,
			Match:       d.Match,
			Confidence:  meanConfidence(d.Result.Confidence),
			VotesCast:   d.Result.Stats.VotesCast,
		}
	}
	out.Traceback = *rankVerdicts(verdicts)
	return out, nil
}

// reader is one candidate of the read loop: its walk parameters, the
// grouping keys of the suspect-side state it shares, and the vote board
// and counters it accumulates across segments.
type reader struct {
	label    string // error prefix
	identCol string
	columns  map[string]watermark.ColumnSpec
	params   watermark.Params
	sel      selGroup
	board    *bitstr.VoteBoard
	stats    watermark.DetectStats
}

// selGroup keys the readers that share one selection: sig groups the
// readers that share one prepared suspect (equal specs, identifying
// column and policy) and key, within a group, the (K1, η) pair.
type selGroup struct{ sig, key string }

func newReader(label, sig string, prov Provenance, key crypt.WatermarkKey, columns map[string]watermark.ColumnSpec, params watermark.Params) *reader {
	return &reader{
		label:    label,
		identCol: prov.IdentCol,
		columns:  columns,
		params:   params,
		sel:      selGroup{sig: sig, key: strconv.FormatUint(key.Eta, 10) + "\x00" + string(key.K1)},
		board:    bitstr.NewVoteBoard(params.WmdLen()),
	}
}

// detection folds the reader's board into its verdict.
func (r *reader) detection(lossThreshold float64) (Detection, error) {
	res, err := watermark.FoldVotes(r.board, r.params, r.stats)
	if err != nil {
		return Detection{}, fmt.Errorf("%s: %w", r.label, err)
	}
	loss, err := r.params.Mark.LossFraction(res.Mark)
	if err != nil {
		return Detection{}, fmt.Errorf("%s: %w", r.label, err)
	}
	return Detection{Result: res, MarkLoss: loss, Match: loss <= lossThreshold}, nil
}

// readVotes is the one read-side segment loop. Readers are grouped
// once: one prepared suspect per signature, one selection per
// (signature, K1, η). Per segment each group is prepared and each
// selection made once, in reader order, then every reader's walk runs
// over the pool — each reader owns its board and counters, so the
// worker count cannot change the tallies — while the next segment is
// read ahead (pipe.go). It returns the rows and segments consumed.
func (f *Framework) readVotes(ctx context.Context, src Segments, readers []*reader, stage string) (rows, segments int, err error) {
	groupOf, selOf := make([]int, len(readers)), make([]int, len(readers))
	groups, sels := make(map[string]int), make(map[selGroup]int)
	for i, r := range readers {
		if _, ok := groups[r.sel.sig]; !ok {
			groups[r.sel.sig] = len(groups)
		}
		if _, ok := sels[r.sel]; !ok {
			sels[r.sel] = len(sels)
		}
		groupOf[i], selOf[i] = groups[r.sel.sig], sels[r.sel]
	}
	ahead := readAhead(src)
	defer ahead.close()
	for {
		seg, err := ahead.Next()
		if errors.Is(err, io.EOF) {
			return rows, segments, nil
		}
		if err != nil {
			return rows, segments, fmt.Errorf("core: reading segment %d: %w", segments, err)
		}
		suspects := make([]*watermark.Suspect, len(groups))
		selections := make([]*watermark.Selection, len(sels))
		for i, r := range readers {
			g, s := groupOf[i], selOf[i]
			if suspects[g] == nil {
				suspects[g], err = watermark.PrepareSuspectContext(ctx, seg, r.identCol, r.columns,
					r.params.BoundaryPermutation, r.params.WeightedVoting, f.cfg.Workers)
				if err != nil {
					return rows, segments, fmt.Errorf("%s: %w: %w", r.label, err, ErrBadSchema)
				}
			}
			if selections[s] == nil {
				if selections[s], err = suspects[g].SelectContext(ctx, r.params.Key.K1, r.params.Key.Eta, f.cfg.Workers); err != nil {
					return rows, segments, err
				}
			}
		}
		err = pool.ForEachCtx(ctx, f.cfg.Workers, len(readers), func(i int) error {
			r := readers[i]
			if err := suspects[groupOf[i]].AccumulateContext(ctx, selections[selOf[i]], r.params, r.board, &r.stats); err != nil {
				return fmt.Errorf("%s: %w", r.label, err)
			}
			return nil
		})
		if err != nil {
			return rows, segments, err
		}
		rows += seg.NumRows()
		segments++
		reportProgress(ctx, Progress{Stage: stage, Done: rows})
	}
}
