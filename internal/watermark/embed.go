package watermark

import (
	"context"
	"fmt"

	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/pool"
	"repro/internal/relation"
)

// embedPrelude is the value-dependent half of the Permutate walk for one
// dictionary code: everything that does not depend on the tuple's
// identity is computed once per distinct value instead of once per row.
type embedPrelude struct {
	// err is the resolution/frontier error of the value; it is raised
	// only when a *selected* tuple carries this code — unselected tuples
	// never error.
	err error
	// boundary marks the §5.1 case: the ultimate node is itself maximal.
	boundary bool
	// maxNode roots the hierarchical walk (non-boundary case).
	maxNode dht.NodeID
	// set / setCodes are the boundary permutation set and the dictionary
	// codes of its values (boundary case with BoundaryPermutation).
	set      []dht.NodeID
	setCodes []uint32
}

// embedPlan precomputes one column's per-code preludes plus the
// node → dictionary code table the walk endpoints decode through.
type embedPlan struct {
	col        string
	colKey     []byte // col's bytes, an H input
	idx        int
	spec       ColumnSpec
	pre        []embedPrelude
	codeOfNode []uint32 // indexed by NodeID; valid for frontier nodes
}

// buildEmbedPlan pre-interns every value embedding can write (ultimate
// frontier members and boundary sets) so the walk touches only code
// vectors, then computes the per-code preludes.
func buildEmbedPlan(tbl *relation.Table, col string, ci int, spec ColumnSpec, boundaryPermutation bool) embedPlan {
	plan := embedPlan{col: col, colKey: []byte(col), idx: ci, spec: spec}
	tree := spec.Tree
	plan.codeOfNode = make([]uint32, tree.Size())
	for _, nd := range spec.UltiGen.Nodes() {
		plan.codeOfNode[nd] = tbl.InternValue(ci, tree.Value(nd))
	}
	dict := tbl.DictValues(ci)
	plan.pre = make([]embedPrelude, len(dict))
	for code, value := range dict {
		p := &plan.pre[code]
		id, err := tree.ResolveValue(value)
		if err != nil {
			p.err = err
			continue
		}
		if !spec.UltiGen.Contains(id) {
			p.err = fmt.Errorf("value %q is not at the ultimate generalization frontier; was the table binned with these frontiers?", value)
			continue
		}
		maxNode, ok := spec.MaxGen.CoverOf(id)
		if !ok {
			p.err = fmt.Errorf("value %q has no covering maximal generalization node", value)
			continue
		}
		if maxNode == id {
			p.boundary = true
			if boundaryPermutation {
				if set := boundarySet(spec, id); len(set) >= 2 {
					p.set = set
					p.setCodes = make([]uint32, len(set))
					for i, nd := range set {
						p.setCodes[i] = plan.codeOfNode[nd]
					}
				}
			}
			continue
		}
		p.maxNode = maxNode
	}
	return plan
}

// EmbedContext implements the hierarchical Embedding algorithm of Figure 9 over
// the binned table tbl, in place. identCol names the (encrypted)
// identifying column used as the stable embedding anchor; columns maps
// each watermarkable column to its spec.
//
// For every tuple selected by Equation (5), and for every column, the
// walk starts at the maximal generalization node covering the tuple's
// current value and permutes downward: at each level the target child is
// chosen pseudorandomly with its index parity forced to the mark bit
// (Permutate), until an ultimate generalization node is reached. Levels
// with fewer than two children are traversed without carrying a bit: a
// lone child leaves no parity to choose, a case the paper leaves open.
//
// The value-dependent half of the walk (resolution, frontier checks,
// boundary sets) is planned once per distinct dictionary entry. The
// Equation (5) selection is sharded over Params.Workers; the keyed
// descent then walks the selected rows in order on integer codes.
//
// The embedded table is byte-identical for every Params.Workers value.
// On error the table is left partially mutated (the rows before the
// first bad cell are marked); callers must discard the table when
// the embed fails. The selection scan and the walk poll ctx every
// pool.CtxStride rows and the run aborts with the context's error; a
// cancelled embed leaves the table partially mutated in the same way.
//
// Releases do not call it: the core's write loop selects once and
// embeds through EmbedSelectedContext. Its remaining callers are the
// benchmark module's layer-by-layer replay of that loop (medbench) and
// the examples/ownership_dispute thief, who marks a stolen copy outside
// the pipeline.
func EmbedContext(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (EmbedStats, error) {
	identIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return EmbedStats{}, err
	}
	plans, err := buildEmbedPlans(tbl, columns, p)
	if err != nil {
		return EmbedStats{}, err
	}
	sel, err := selectTuples(ctx, tbl, identIdx, p.Key.K1, p.Key.Eta, p.Workers)
	if err != nil {
		return EmbedStats{}, err
	}
	return embedSelected(ctx, tbl, sel, plans, p)
}

// EmbedSelectedContext is EmbedContext with the Equation (5) selection
// precomputed by SelectForEmbedContext. The selection is a pure
// function of (identifier, K1, η), and the walk of each selected cell
// depends only on the identifier, K2 and the mark bit, so this is the
// per-recipient step of the fingerprint fan-out: one selection serves
// every recipient key sharing K1 and η, collapsing each embed to a walk
// over the few selected rows.
//
// The selection must have been computed over a table whose identifying
// column matches tbl's (the fan-out embeds into clones of the table it
// selected over); row indices are trusted.
func EmbedSelectedContext(ctx context.Context, tbl *relation.Table, sel *Selection, columns map[string]ColumnSpec, p Params) (EmbedStats, error) {
	if sel.k1 != string(p.Key.K1) || sel.eta != p.Key.Eta {
		return EmbedStats{}, fmt.Errorf("watermark: selection was computed under a different (K1, eta) than the embedding key")
	}
	plans, err := buildEmbedPlans(tbl, columns, p)
	if err != nil {
		return EmbedStats{}, err
	}
	return embedSelected(ctx, tbl, sel, plans, p)
}

// buildEmbedPlans validates the parameters and the column specs and
// plans every column in canonical order.
func buildEmbedPlans(tbl *relation.Table, columns map[string]ColumnSpec, p Params) ([]embedPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("watermark: no columns to embed into")
	}
	cols := sortColumns(columns)
	plans := make([]embedPlan, len(cols))
	for i, col := range cols {
		spec := columns[col]
		if err := spec.validate(col); err != nil {
			return nil, err
		}
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return nil, err
		}
		plans[i] = buildEmbedPlan(tbl, col, ci, spec, p.BoundaryPermutation)
	}
	return plans, nil
}

// embedSelected is the Permutate walk over the selected rows: every
// value it can write was interned by the plans, so it touches only the
// code vectors. It stops at the first bad cell.
func embedSelected(ctx context.Context, tbl *relation.Table, sel *Selection, plans []embedPlan, p Params) (EmbedStats, error) {
	var stats EmbedStats
	prf2 := crypt.NewPRF(p.Key.K2)
	wmd := p.Mark.Duplicate(p.Duplication)
	for i, row := range sel.rows {
		if err := pool.CtxAt(ctx, i); err != nil {
			return stats, err
		}
		ident := sel.ident(i)
		stats.TuplesSelected++
		for pi := range plans {
			plan := &plans[pi]
			code := tbl.CodeAt(int(row), plan.idx)
			newCode, embedded, err := embedCode(plan, code, prf2, ident, wmd.Get(p.positionOf(prf2, ident, plan.colKey)))
			if err != nil {
				return stats, fmt.Errorf("watermark: row %d column %s: %w", row, plan.col, err)
			}
			stats.BitsEmbedded += embedded
			if embedded == 0 {
				stats.ZeroBandwidth++
			}
			if newCode != code {
				tbl.SetCodeAt(int(row), plan.idx, newCode)
				stats.CellsChanged++
			}
		}
	}
	return stats, nil
}

// embedCode runs the per-tuple half of the Permutate walk for one cell,
// returning the new dictionary code and the number of bits embedded
// (levels with branching >= 2).
func embedCode(plan *embedPlan, code uint32, prf2 *crypt.PRF, ident []byte, bit bool) (uint32, int, error) {
	pre := &plan.pre[code]
	if pre.err != nil {
		return 0, 0, pre.err
	}
	tree := plan.spec.Tree
	if pre.boundary {
		// §5.1 boundary case: the ultimate node is itself maximal; the
		// plan left setCodes empty when permutation is off or the set has
		// fewer than two members.
		if len(pre.setCodes) == 0 {
			return code, 0, nil
		}
		idx := int(prf2.Mod(uint64(len(pre.set)), ident, labelPerm, plan.colKey, labelBoundary))
		idx = setMuBit(idx, bit, len(pre.set))
		return pre.setCodes[idx], 1, nil
	}

	// Hierarchical walk: descend from the maximal node, choosing at each
	// level a child whose sorted index carries the mark bit in its parity.
	// The pseudorandom part of the index is salted with the depth so the
	// even/odd slot varies per level; detection only reads the parity, so
	// this changes nothing observable.
	cur := pre.maxNode
	embedded := 0
	for !plan.spec.UltiGen.Contains(cur) {
		children := tree.SortedChildren(cur)
		if len(children) == 0 {
			return 0, 0, fmt.Errorf("internal: walk from %q reached leaf %q without crossing the ultimate frontier",
				tree.Value(pre.maxNode), tree.Value(cur))
		}
		idx := 0
		if len(children) >= 2 {
			depth := int(byte(tree.Node(cur).Depth))
			idx = int(prf2.Mod(uint64(len(children)), ident, labelPerm, plan.colKey, levelLabels[depth:depth+1]))
			idx = setMuBit(idx, bit, len(children))
			embedded++
		}
		cur = children[idx]
	}
	return plan.codeOfNode[cur], embedded, nil
}
