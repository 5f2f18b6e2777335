package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/crypt"
	"repro/internal/relation"
)

// Candidate is one registered recipient a suspect table is tested
// against: the provenance record of that recipient's copy (carrying the
// recipient-salted mark) and the recipient's key.
type Candidate struct {
	ID         string
	Provenance Provenance
	Key        crypt.WatermarkKey
}

// TracebackVerdict is one candidate's detection outcome over the
// suspect table.
type TracebackVerdict struct {
	// RecipientID names the candidate.
	RecipientID string
	// Mark is the mark the suspect's votes reconstruct under the
	// candidate's key ('0'/'1' runes).
	Mark string
	// MarkLoss is the reconstructed mark's loss against the candidate's
	// registered mark; MatchRatio = 1 - MarkLoss ranks the verdicts.
	MarkLoss   float64
	MatchRatio float64
	// Match applies the framework's loss threshold.
	Match bool
	// Confidence is the mean per-position vote margin of the
	// reconstruction in [0,1].
	Confidence float64
	// VotesCast counts the suspect votes harvested for this candidate.
	VotesCast int
}

// Traceback is TracebackContext's report: every candidate's verdict,
// ranked best match first.
type Traceback struct {
	// Verdicts are ordered by descending MatchRatio (ties: descending
	// Confidence, then ascending recipient ID) — the ranking is
	// deterministic for any worker count.
	Verdicts []TracebackVerdict
	// Culprit is the best-ranked recipient ID when its verdict matches,
	// "" when no candidate's mark survives in the suspect.
	Culprit string
	// Matches counts verdicts passing the loss threshold.
	Matches int
}

// Traceback is TracebackContext under the background context.
func (f *Framework) Traceback(suspect *relation.Table, candidates []Candidate) (*Traceback, error) {
	return f.TracebackContext(context.Background(), suspect, candidates)
}

// TracebackContext answers the leak question: given a suspect table and
// the registered recipients of its source, whose copy was leaked? It is
// TracebackStream over the suspect as a single segment: the suspect-side
// work is shared across candidates — the per-column verdict tables are
// built once per distinct frontier/policy group, and the Equation (5)
// selection scan runs once per distinct (K1, η) pair (one scan total
// when the keys come from crypt.RecipientWatermarkKey) — so tracing N
// recipients costs one table scan plus N cheap per-candidate vote walks
// instead of N full detections. The per-candidate verdicts are
// bit-identical to independent DetectContext calls under the same
// provenance and key.
func (f *Framework) TracebackContext(ctx context.Context, suspect *relation.Table, candidates []Candidate) (*Traceback, error) {
	tb, err := f.TracebackStream(ctx, &oneSegment{tbl: suspect}, candidates)
	if err != nil {
		return nil, err
	}
	return &tb.Traceback, nil
}

// validateCandidates rejects empty, duplicate or badly-keyed candidate
// sets.
func validateCandidates(candidates []Candidate) error {
	if len(candidates) == 0 {
		return fmt.Errorf("core: no traceback candidates: %w", ErrBadConfig)
	}
	seen := make(map[string]bool, len(candidates))
	for i, c := range candidates {
		if c.ID == "" {
			return fmt.Errorf("core: candidate %d has an empty ID: %w", i, ErrBadConfig)
		}
		if seen[c.ID] {
			return fmt.Errorf("core: duplicate candidate ID %q: %w", c.ID, ErrBadConfig)
		}
		seen[c.ID] = true
		if err := c.Key.Validate(); err != nil {
			return fmt.Errorf("core: candidate %q: %w: %w", c.ID, err, ErrBadKey)
		}
	}
	return nil
}

// rankVerdicts orders the verdicts (descending MatchRatio, descending
// Confidence, ascending recipient ID) and derives the culprit and match
// count.
func rankVerdicts(verdicts []TracebackVerdict) *Traceback {
	sort.SliceStable(verdicts, func(a, b int) bool {
		if verdicts[a].MatchRatio != verdicts[b].MatchRatio {
			return verdicts[a].MatchRatio > verdicts[b].MatchRatio
		}
		if verdicts[a].Confidence != verdicts[b].Confidence {
			return verdicts[a].Confidence > verdicts[b].Confidence
		}
		return verdicts[a].RecipientID < verdicts[b].RecipientID
	})
	out := &Traceback{Verdicts: verdicts}
	for _, v := range verdicts {
		if v.Match {
			out.Matches++
		}
	}
	if len(verdicts) > 0 && verdicts[0].Match {
		out.Culprit = verdicts[0].RecipientID
	}
	return out
}

// meanConfidence folds the per-position vote margins into one scalar.
func meanConfidence(conf []float64) float64 {
	if len(conf) == 0 {
		return 0
	}
	var sum float64
	for _, c := range conf {
		sum += c
	}
	return sum / float64(len(conf))
}

// suspectSignature keys the shared suspect-side state: two candidates
// with equal signatures produce identical verdict tables.
func suspectSignature(prov Provenance) string {
	var sb strings.Builder
	sb.WriteString(prov.IdentCol)
	sb.WriteByte(0)
	if prov.BoundaryPermutation {
		sb.WriteByte(1)
	} else {
		sb.WriteByte(0)
	}
	if prov.WeightedVoting {
		sb.WriteByte(1)
	} else {
		sb.WriteByte(0)
	}
	cols := make([]string, 0, len(prov.Columns))
	for col := range prov.Columns {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		cp := prov.Columns[col]
		sb.WriteByte(0)
		sb.WriteString(col)
		for _, v := range cp.Ulti {
			sb.WriteByte(1)
			sb.WriteString(v)
		}
		for _, v := range cp.Max {
			sb.WriteByte(2)
			sb.WriteString(v)
		}
	}
	return sb.String()
}
