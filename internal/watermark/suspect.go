package watermark

import (
	"context"
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/pool"
	"repro/internal/relation"
)

// Suspect is the table-side half of detection, precomputed once per
// suspect table and embedding policy: schema resolution plus the
// per-column, per-distinct-value verdict tables. Leak traceback runs
// detection for every registered recipient against one suspect table;
// preparing the suspect once means that work is paid once, not once per
// candidate. A Suspect is read-only after construction and safe for
// concurrent AccumulateContext calls.
type Suspect struct {
	tbl                 *relation.Table
	identIdx            int
	plans               []detectPlan
	boundaryPermutation bool
	weightedVoting      bool
}

// PrepareSuspectContext builds the shared detection state over tbl for
// the given column specs and embedding policy (the two Params fields the
// verdict tables depend on).
func PrepareSuspectContext(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, boundaryPermutation, weightedVoting bool, workers int) (*Suspect, error) {
	return prepareSuspect(ctx, tbl, identCol, columns, Params{
		BoundaryPermutation: boundaryPermutation,
		WeightedVoting:      weightedVoting,
		Workers:             workers,
	})
}

// prepareSuspect is PrepareSuspectContext under the policy fields of p.
func prepareSuspect(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (*Suspect, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Suspect{
		tbl:                 tbl,
		boundaryPermutation: p.BoundaryPermutation,
		weightedVoting:      p.WeightedVoting,
	}
	var err error
	if s.identIdx, err = tbl.Schema().Index(identCol); err != nil {
		return nil, err
	}
	if s.plans, err = buildDetectPlans(ctx, tbl, columns, p); err != nil {
		return nil, err
	}
	return s, nil
}

// Selection records which tuples a (K1, η) pair selects under
// Equation (5), with each selected tuple's identifier bytes. Selection
// is the per-key half of the walk that does not depend on K2, the mark
// or the duplication factor — candidates sharing K1 and η (every
// recipient key derived by crypt.RecipientWatermarkKey from one master
// secret) share one Selection, collapsing the per-candidate cost from a
// full-table PRF scan to a walk over the few selected rows.
type Selection struct {
	k1   string
	eta  uint64
	rows []int32
	// ends[i] is the end offset of selected tuple i's identifier in
	// arena; identifiers are stored back to back.
	ends  []int
	arena []byte
}

// ident returns the identifier bytes of selected tuple i.
func (sel *Selection) ident(i int) []byte {
	lo := 0
	if i > 0 {
		lo = sel.ends[i-1]
	}
	return sel.arena[lo:sel.ends[i]]
}

// Rows returns the selected row indices in ascending order. The slice
// is the selection's own: treat it as read-only.
func (sel *Selection) Rows() []int32 { return sel.rows }

// SelectContext scans the suspect once under (k1, η) and returns the
// selected rows in ascending order.
func (s *Suspect) SelectContext(ctx context.Context, k1 []byte, eta uint64, workers int) (*Selection, error) {
	return selectTuples(ctx, s.tbl, s.identIdx, k1, eta, workers)
}

// SelectForEmbedContext scans tbl once under (k1, η) and returns the
// Equation (5) selection — the rows EmbedContext would mark and their
// identifier bytes. The selection depends only on the identifying
// column, K1 and η, never on K2 or the mark, so a fingerprint fan-out
// whose recipient keys share K1 and η (crypt.RecipientWatermarkKey)
// computes it once and embeds every recipient's mark through
// EmbedSelectedContext without re-scanning the table.
func SelectForEmbedContext(ctx context.Context, tbl *relation.Table, identCol string, k1 []byte, eta uint64, workers int) (*Selection, error) {
	identIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return nil, err
	}
	return selectTuples(ctx, tbl, identIdx, k1, eta, workers)
}

// selectTuples is the sharded Equation (5) scan behind every walk:
// selected rows in ascending order, each tuple anchored on its
// identifying cell. Each shard copies its selected identifiers into one
// arena sized for the expected selection; the shards are concatenated
// in row order.
func selectTuples(ctx context.Context, tbl *relation.Table, identIdx int, k1 []byte, eta uint64, workers int) (*Selection, error) {
	if len(k1) == 0 {
		return nil, fmt.Errorf("watermark: empty selection key")
	}
	prf1 := crypt.NewPRF(k1)
	n := tbl.NumRows()
	shards := make([]Selection, len(pool.Chunks(workers, n)))
	err := pool.ForEachChunkCtx(ctx, workers, n, func(si, lo, hi int) error {
		sh := &shards[si]
		// Equation (5) selects about one tuple in η; a quarter of slack
		// absorbs most of the binomial spread without regrowing.
		hint := int(uint64(hi-lo)/max(eta, 1))*5/4 + 4
		sh.rows = make([]int32, 0, hint)
		sh.ends = make([]int, 0, hint)
		var buf []byte // reused across rows; PRF calls do not retain it
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			buf = append(buf[:0], tbl.CellAt(row, identIdx)...)
			if !prf1.Selects(buf, eta) {
				continue
			}
			if sh.arena == nil {
				sh.arena = make([]byte, 0, hint*len(buf))
			}
			sh.arena = append(sh.arena, buf...)
			sh.rows = append(sh.rows, int32(row))
			sh.ends = append(sh.ends, len(sh.arena))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sel := &Selection{k1: string(k1), eta: eta}
	if len(shards) == 1 {
		sel.rows, sel.ends, sel.arena = shards[0].rows, shards[0].ends, shards[0].arena
		return sel, nil
	}
	var rows, arena int
	for i := range shards {
		rows += len(shards[i].rows)
		arena += len(shards[i].arena)
	}
	sel.rows = make([]int32, 0, rows)
	sel.ends = make([]int, 0, rows)
	sel.arena = make([]byte, 0, arena)
	for i := range shards {
		sh := &shards[i]
		base := len(sel.arena)
		sel.rows = append(sel.rows, sh.rows...)
		for _, end := range sh.ends {
			sel.ends = append(sel.ends, base+end)
		}
		sel.arena = append(sel.arena, sh.arena...)
	}
	return sel, nil
}

// AccumulateContext harvests one candidate's votes over the selected
// tuples of the prepared suspect into a caller-owned replicated board
// (length |wmd|) and counter set, without folding. It is the walk of
// every detection: DetectAccum runs it once per segment and core's read
// loop once per candidate per segment, each board folded once at the
// end by FoldVotes.
func (s *Suspect) AccumulateContext(ctx context.Context, sel *Selection, p Params, board *bitstr.VoteBoard, stats *DetectStats) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.BoundaryPermutation != s.boundaryPermutation || p.WeightedVoting != s.weightedVoting {
		return fmt.Errorf(
			"watermark: params policy (boundary_permutation=%v, weighted_voting=%v) does not match the prepared suspect (%v, %v)",
			p.BoundaryPermutation, p.WeightedVoting, s.boundaryPermutation, s.weightedVoting)
	}
	if sel.k1 != string(p.Key.K1) || sel.eta != p.Key.Eta {
		return fmt.Errorf("watermark: selection was computed under a different (K1, eta) than the candidate key")
	}
	if board.Len() != p.wmdLen() {
		return fmt.Errorf("watermark: vote board has %d positions, want |wmd| = %d", board.Len(), p.wmdLen())
	}
	prf2 := crypt.NewPRF(p.Key.K2)
	for i, row := range sel.rows {
		if err := pool.CtxAt(ctx, i); err != nil {
			return err
		}
		ident := sel.ident(i)
		stats.TuplesSelected++
		for pi := range s.plans {
			plan := &s.plans[pi]
			v := &plan.verdicts[s.tbl.CodeAt(int(row), plan.idx)]
			stats.BitsRead += v.read
			if !v.ok {
				stats.SkippedCells++
				continue
			}
			pos := p.positionOf(prf2, ident, plan.colKey)
			board.Vote(pos, v.bit, 1)
			stats.VotesCast++
		}
	}
	return nil
}

// walk is one candidate's detection pass over the prepared suspect:
// select under the candidate's (K1, η), then accumulate.
func (s *Suspect) walk(ctx context.Context, p Params, board *bitstr.VoteBoard, stats *DetectStats) error {
	sel, err := s.SelectContext(ctx, p.Key.K1, p.Key.Eta, p.Workers)
	if err != nil {
		return err
	}
	return s.AccumulateContext(ctx, sel, p, board, stats)
}

// FoldVotes folds a replicated vote board (length |wmd|) into the
// recovered mark: the final step of every detection, run once after
// the last AccumulateContext.
func FoldVotes(board *bitstr.VoteBoard, p Params, stats DetectStats) (DetectResult, error) {
	folded, err := board.FoldInto(p.Mark.Len())
	if err != nil {
		return DetectResult{}, err
	}
	return DetectResult{Mark: folded.Resolve(), Confidence: folded.Confidence(), Stats: stats}, nil
}
