package watermark

import (
	"context"

	"repro/internal/bitstr"
	"repro/internal/pool"
	"repro/internal/relation"
)

// cellVerdict is the value-dependent outcome of detectCell for one
// dictionary code: the harvested bit, the number of level bits read, and
// whether the cell contributes a vote at all.
type cellVerdict struct {
	bit  bool
	read int
	ok   bool
}

// detectPlan precomputes one column's per-code verdicts: the detection
// walk is a pure function of the cell value, so it runs once per
// distinct dictionary entry and the walk over the selected tuples
// reduces to integer lookups plus vote accumulation.
type detectPlan struct {
	colKey   []byte // the column name's bytes, an H input
	idx      int
	verdicts []cellVerdict
}

// DetectAccum implements the Detection algorithm of Figure 9,
// segment-at-a-time. Each AddContext selects a segment's tuples with
// Equation (5), resolves each watermarked cell to its tree node,
// harvests one bit per level from the node up to (but excluding) its
// maximal generalization node — the parity of the node's index among
// its sorted siblings — majority-votes the levels into a per-cell bit
// (weighted by level when Params.WeightedVoting is set), and
// accumulates votes per wmd position into one replicated vote board
// shared across segments; Result folds the replicas into the mark by
// majority voting. Segments arrive in row order and every vote carries
// integer weight, so the outcome is the same for every segmentation and
// worker count.
//
// Detection is deliberately generalization-aware: a cell that an attacker
// generalized to a higher node still contributes the surviving upper
// levels; a cell altered out of the domain, or generalized above the
// usage metrics, is skipped. This single code path therefore serves clean
// tables, the §5.2 generalization attack and the §7.2 alteration attacks.
//
// The product's detection, traceback and dispute walk prepared suspects
// through internal/core's read loop; DetectAccum is what medbench's leak
// replay times and what the tests detect with as a reference.
type DetectAccum struct {
	identCol string
	columns  map[string]ColumnSpec
	p        Params
	board    *bitstr.VoteBoard
	stats    DetectStats
}

// NewDetectAccum validates the parameters and returns an empty
// accumulator.
func NewDetectAccum(identCol string, columns map[string]ColumnSpec, p Params) (*DetectAccum, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &DetectAccum{
		identCol: identCol,
		columns:  columns,
		p:        p,
		board:    bitstr.NewVoteBoard(p.wmdLen()),
	}, nil
}

// AddContext harvests one segment's votes into the accumulator. The
// selection scan and the walk poll ctx every pool.CtxStride rows, so a
// long detection aborts promptly with the context's error.
func (a *DetectAccum) AddContext(ctx context.Context, seg *relation.Table) error {
	s, err := prepareSuspect(ctx, seg, a.identCol, a.columns, a.p)
	if err != nil {
		return err
	}
	return s.walk(ctx, a.p, a.board, &a.stats)
}

// Result folds the replicated tallies into the recovered mark. The
// accumulator remains usable: further AddContext calls keep
// accumulating.
func (a *DetectAccum) Result() (DetectResult, error) {
	return FoldVotes(a.board, a.p, a.stats)
}

// buildDetectPlans precomputes the per-column verdict tables: the
// detection walk is a pure function of the cell value, so it runs once
// per distinct dictionary entry and the walk reduces to integer
// lookups plus vote accumulation. Columns are built in parallel over the
// worker pool — each table is written by exactly one worker and the
// result slice is ordered by the canonical column order, so the outcome
// is identical for every worker count.
func buildDetectPlans(ctx context.Context, tbl *relation.Table, columns map[string]ColumnSpec, p Params) ([]detectPlan, error) {
	cols := sortColumns(columns)
	plans := make([]detectPlan, len(cols))
	err := pool.ForEachCtx(ctx, p.Workers, len(cols), func(i int) error {
		col := cols[i]
		spec := columns[col]
		if err := spec.validate(col); err != nil {
			return err
		}
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return err
		}
		// The detection walk per distinct value, not per row: an attacked
		// 20k-row table typically holds a few dozen distinct values per
		// watermarked column.
		dict := tbl.DictValues(ci)
		verdicts := make([]cellVerdict, len(dict))
		for code, value := range dict {
			bit, read, ok := detectCell(spec, value, p)
			verdicts[code] = cellVerdict{bit: bit, read: read, ok: ok}
		}
		plans[i] = detectPlan{colKey: []byte(col), idx: ci, verdicts: verdicts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plans, nil
}

// detectCell recovers the per-cell bit by weighted majority over the
// surviving levels. It returns ok=false when the cell contributes nothing
// (unresolvable value, above the usage metrics, or no branching levels).
func detectCell(spec ColumnSpec, value string, p Params) (bit bool, bitsRead int, ok bool) {
	tree := spec.Tree
	id, err := tree.ResolveValue(value)
	if err != nil {
		return false, 0, false
	}
	maxNode, covered := spec.MaxGen.CoverOf(id)
	if !covered {
		return false, 0, false
	}

	var zero, one float64
	if id == maxNode {
		// Boundary case: a bit may sit in the sibling permutation when
		// BoundaryPermutation was used at embedding.
		if !p.BoundaryPermutation {
			return false, 0, false
		}
		set := boundarySet(spec, id)
		idx := indexIn(id, set)
		if len(set) < 2 || idx < 0 {
			return false, 0, false
		}
		return idx&1 == 1, 1, true
	}

	levelFromBottom := 0
	for cur := id; cur != maxNode; cur = tree.Parent(cur) {
		// The precomputed sibling rank replaces a per-level
		// SortedSiblings sort: only the parity of the canonical position
		// matters here.
		if tree.NumSiblings(cur) >= 2 {
			w := 1.0
			if p.WeightedVoting {
				// Higher levels (closer to the maximal node) are harder
				// for an attacker to disturb; §5.3 suggests weighting
				// their copies more.
				w = float64(levelFromBottom + 1)
			}
			if tree.SiblingRank(cur)&1 == 1 {
				one += w
			} else {
				zero += w
			}
			bitsRead++
		}
		levelFromBottom++
	}
	if zero == one {
		// no levels, or a perfect tie: no information
		return false, bitsRead, false
	}
	return one > zero, bitsRead, true
}
