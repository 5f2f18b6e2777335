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
// verdict tables depend on). Virtual-identifier detection is not
// supported here — it stays on the plain DetectContext path.
func PrepareSuspectContext(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, boundaryPermutation, weightedVoting bool, workers int) (*Suspect, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	identIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return nil, err
	}
	plans, err := buildDetectPlans(ctx, tbl, columns, Params{
		BoundaryPermutation: boundaryPermutation,
		WeightedVoting:      weightedVoting,
		Workers:             workers,
	})
	if err != nil {
		return nil, err
	}
	return &Suspect{
		tbl:                 tbl,
		identIdx:            identIdx,
		plans:               plans,
		boundaryPermutation: boundaryPermutation,
		weightedVoting:      weightedVoting,
	}, nil
}

// Selection records which suspect tuples a (K1, η) pair selects under
// Equation (5), with each selected tuple's identifier bytes. Selection
// is the per-key half of the scan that does not depend on K2, the mark
// or the duplication factor — candidates sharing K1 and η (every
// recipient key derived by crypt.RecipientWatermarkKey from one master
// secret) share one Selection, collapsing the per-candidate cost from a
// full-table PRF scan to a walk over the few selected rows.
type Selection struct {
	k1    string
	eta   uint64
	rows  []int32
	ident [][]byte
}

// SelectContext scans the suspect once under (k1, η) and returns the
// selected rows in ascending order — identical to the selection the
// sharded DetectContext performs internally.
func (s *Suspect) SelectContext(ctx context.Context, k1 []byte, eta uint64, workers int) (*Selection, error) {
	return selectTuples(ctx, s.tbl, s.identIdx, k1, eta, workers)
}

// SelectForEmbedContext scans tbl once under (k1, η) and returns the
// Equation (5) selection — the rows Embed would mark and their
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

// selectTuples is the sharded Equation (5) scan behind SelectContext
// and SelectForEmbedContext: selected rows in ascending order, each
// with a private copy of its identifier bytes.
func selectTuples(ctx context.Context, tbl *relation.Table, identIdx int, k1 []byte, eta uint64, workers int) (*Selection, error) {
	if len(k1) == 0 {
		return nil, fmt.Errorf("watermark: empty selection key")
	}
	prf1 := crypt.NewPRF(k1)
	n := tbl.NumRows()
	type shard struct {
		rows  []int32
		ident [][]byte
	}
	chunks := pool.Chunks(workers, n)
	shards := make([]shard, len(chunks))
	err := pool.ForEachChunkCtx(ctx, workers, n, func(si, lo, hi int) error {
		var sh shard
		var buf []byte
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			buf = append(buf[:0], tbl.CellAt(row, identIdx)...)
			if !prf1.Selects(buf, eta) {
				continue
			}
			ident := make([]byte, len(buf))
			copy(ident, buf)
			sh.rows = append(sh.rows, int32(row))
			sh.ident = append(sh.ident, ident)
		}
		shards[si] = sh
		return nil
	})
	if err != nil {
		return nil, err
	}
	sel := &Selection{k1: string(k1), eta: eta}
	for _, sh := range shards {
		sel.rows = append(sel.rows, sh.rows...)
		sel.ident = append(sel.ident, sh.ident...)
	}
	return sel, nil
}

// Selected returns the number of tuples the selection holds.
func (sel *Selection) Selected() int { return len(sel.rows) }

// AccumulateContext harvests one candidate's votes over the prepared
// suspect into a caller-owned replicated board (length |wmd|) and
// counter set, without folding — the per-segment step of a traceback,
// where one persistent board per candidate accumulates across suspect
// segments and folds once at the end. Folding the board reproduces
// DetectContext over the same rows exactly.
func (s *Suspect) AccumulateContext(ctx context.Context, sel *Selection, p Params, board *bitstr.VoteBoard, stats *DetectStats) error {
	if err := p.validate(); err != nil {
		return err
	}
	if p.UseVirtualIdent {
		return fmt.Errorf("watermark: virtual-identifier detection is not supported over a prepared suspect")
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
		ident := sel.ident[i]
		stats.TuplesSelected++
		for pi := range s.plans {
			plan := &s.plans[pi]
			v := &plan.verdicts[s.tbl.CodeAt(int(row), plan.idx)]
			stats.BitsRead += v.read
			if !v.ok {
				stats.SkippedCells++
				continue
			}
			pos := p.positionOf(prf2, ident, plan.col)
			board.Vote(pos, v.bit, 1)
			stats.VotesCast++
		}
	}
	return nil
}
