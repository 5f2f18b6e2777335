package watermark

import "repro/internal/relation"

// Virtual primary keys (§5.3, footnote 1): "In case the identifying
// columns cannot be relied on, we can establish virtual key attributes as
// in [Li, Swarup, Jajodia] by turning to other columns." The anchor must
// be invariant under the marking itself; in this scheme the maximal
// generalization node covering a value never changes during embedding
// (permutation stays inside one maximal subtree — the §5.1 bandwidth
// argument), so the concatenation of the per-column maximal-cover values
// is a sound virtual key.
//
// Granularity caveat: tuples sharing all maximal covers share the virtual
// key, so they are selected together and carry the same mark position —
// redundancy rather than spread. Robustness against identifier-column
// tampering is traded for lower position diversity; the tests quantify
// the roundtrip still being exact.

// virtualKeys derives the virtual key of a row from its codes: the
// per-column key contribution is a function of the cell value alone —
// the value of its maximal cover, or the literal value when it does not
// resolve or sits above the usage metrics — so it is computed once per
// dictionary code and per-row derivation is integer indexing plus
// concatenation. Embedder and detector apply the same rule, so the key
// stays stable wherever the data are intact.
type virtualKeys struct {
	idxs  []int      // column indexes, in sorted column order
	parts [][]string // per column: code → key part
}

// buildVirtualKeys precomputes the per-code key parts of tbl's
// watermarkable columns.
func buildVirtualKeys(tbl *relation.Table, columns map[string]ColumnSpec) (*virtualKeys, error) {
	cols := sortColumns(columns)
	vk := &virtualKeys{idxs: make([]int, len(cols)), parts: make([][]string, len(cols))}
	for i, col := range cols {
		spec := columns[col]
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return nil, err
		}
		dict := tbl.DictValues(ci)
		parts := make([]string, len(dict))
		for code, value := range dict {
			part := value
			if id, err := spec.Tree.ResolveValue(value); err == nil {
				if maxNode, ok := spec.MaxGen.CoverOf(id); ok {
					part = spec.Tree.Value(maxNode)
				}
			}
			parts[code] = part
		}
		vk.idxs[i], vk.parts[i] = ci, parts
	}
	return vk, nil
}

// appendIdent appends the virtual key bytes of one row to dst: each
// column's part followed by a 0x1f separator.
func (vk *virtualKeys) appendIdent(dst []byte, tbl *relation.Table, row int) []byte {
	for i, ci := range vk.idxs {
		dst = append(dst, vk.parts[i][tbl.CodeAt(row, ci)]...)
		dst = append(dst, 0x1f)
	}
	return dst
}
