package watermark

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/relation"
)

// The single-level scheme of §5.2 permutes values only at the level of
// the ultimate generalization nodes: the bit is the parity of the chosen
// sibling's sorted index. The paper introduces it to show it is
// "susceptible to a kind of generalization attack that can completely
// destroy the inserted bits without knowing the watermarking key" — one
// generalization step leaves nothing for the detector to read. It is
// implemented here as the experimental baseline for that claim (E8).
//
// The scheme requires every ultimate generalization node of a column to
// sit at one uniform depth (the setting of categorical-permutation
// watermarking it models); uniformDepth enforces that.

func uniformDepth(spec ColumnSpec, col string) (int, error) {
	nodes := spec.UltiGen.Nodes()
	if len(nodes) == 0 {
		return 0, fmt.Errorf("watermark: column %s: empty frontier", col)
	}
	d := spec.Tree.Node(nodes[0]).Depth
	for _, nd := range nodes[1:] {
		if spec.Tree.Node(nd).Depth != d {
			return 0, fmt.Errorf(
				"watermark: column %s: single-level scheme requires a uniform-depth frontier (found depths %d and %d)",
				col, d, spec.Tree.Node(nd).Depth)
		}
	}
	return d, nil
}

// EmbedSingleLevel embeds the mark with the single-level scheme, in
// place. Selection, position addressing and key usage match EmbedContext, so the
// two schemes are directly comparable.
func EmbedSingleLevel(tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (EmbedStats, error) {
	var stats EmbedStats
	if err := p.Validate(); err != nil {
		return stats, err
	}
	if len(columns) == 0 {
		return stats, fmt.Errorf("watermark: no columns to embed into")
	}
	identIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return stats, err
	}
	colIdx := make(map[string]int, len(columns))
	for col, spec := range columns {
		if err := spec.validate(col); err != nil {
			return stats, err
		}
		if _, err := uniformDepth(spec, col); err != nil {
			return stats, err
		}
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return stats, err
		}
		colIdx[col] = ci
	}

	prf1 := crypt.NewPRF(p.Key.K1)
	prf2 := crypt.NewPRF(p.Key.K2)
	wmd := p.Mark.Duplicate(p.Duplication)
	cols := sortColumns(columns)

	for row := 0; row < tbl.NumRows(); row++ {
		ident := []byte(tbl.CellAt(row, identIdx))
		if !prf1.Selects(ident, p.Key.Eta) {
			continue
		}
		stats.TuplesSelected++
		for _, col := range cols {
			spec := columns[col]
			ci := colIdx[col]
			oldVal := tbl.CellAt(row, ci)
			id, err := spec.Tree.ResolveValue(oldVal)
			if err != nil {
				return stats, fmt.Errorf("watermark: row %d column %s: %w", row, col, err)
			}
			if !spec.UltiGen.Contains(id) {
				return stats, fmt.Errorf("watermark: row %d column %s: value %q not at the ultimate frontier", row, col, oldVal)
			}
			siblings := spec.Tree.SortedSiblings(id)
			if len(siblings) < 2 {
				stats.ZeroBandwidth++
				continue
			}
			bit := wmd.Get(p.positionOf(prf2, ident, []byte(col)))
			idx := int(prf2.Mod(uint64(len(siblings)), ident, labelPerm, []byte(col)))
			idx = setMuBit(idx, bit, len(siblings))
			stats.BitsEmbedded++
			newVal := spec.Tree.Value(siblings[idx])
			if newVal != oldVal {
				tbl.SetCellAt(row, ci, newVal)
				stats.CellsChanged++
			}
		}
	}
	return stats, nil
}

// DetectSingleLevel detects a single-level mark: the bit of a cell is the
// sorted-sibling index parity of the value's node at the frontier depth.
// A value that no longer sits at that depth (e.g. after a generalization
// attack) contributes nothing — which is exactly the vulnerability the
// hierarchical scheme fixes.
func DetectSingleLevel(tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (DetectResult, error) {
	var res DetectResult
	if err := p.Validate(); err != nil {
		return res, err
	}
	identIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return res, err
	}
	colIdx := make(map[string]int, len(columns))
	depths := make(map[string]int, len(columns))
	for col, spec := range columns {
		if err := spec.validate(col); err != nil {
			return res, err
		}
		d, err := uniformDepth(spec, col)
		if err != nil {
			return res, err
		}
		depths[col] = d
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return res, err
		}
		colIdx[col] = ci
	}

	prf1 := crypt.NewPRF(p.Key.K1)
	prf2 := crypt.NewPRF(p.Key.K2)
	board := bitstr.NewVoteBoard(p.wmdLen())
	cols := sortColumns(columns)

	for row := 0; row < tbl.NumRows(); row++ {
		ident := []byte(tbl.CellAt(row, identIdx))
		if !prf1.Selects(ident, p.Key.Eta) {
			continue
		}
		res.Stats.TuplesSelected++
		for _, col := range cols {
			spec := columns[col]
			id, err := spec.Tree.ResolveValue(tbl.CellAt(row, colIdx[col]))
			if err != nil || spec.Tree.Node(id).Depth != depths[col] {
				res.Stats.SkippedCells++
				continue
			}
			siblings := spec.Tree.SortedSiblings(id)
			idx := indexIn(id, siblings)
			if len(siblings) < 2 || idx < 0 {
				res.Stats.SkippedCells++
				continue
			}
			res.Stats.BitsRead++
			board.Vote(p.positionOf(prf2, ident, []byte(col)), idx&1 == 1, 1)
			res.Stats.VotesCast++
		}
	}

	folded, err := board.FoldInto(p.Mark.Len())
	if err != nil {
		return res, err
	}
	res.Mark = folded.Resolve()
	res.Confidence = folded.Confidence()
	return res, nil
}
