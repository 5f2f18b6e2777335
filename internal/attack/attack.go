// Package attack implements the attack models of the paper: the subset
// alteration, addition and deletion attacks of the robustness experiments
// (§7.2, Figure 12), the generalization attack specific to binned data
// (§5.2), and the two rightful-ownership attacks of §5.4 (Figure 10).
// All attackers are keyless: they see the watermarked table and the
// public domain hierarchy trees, but never the secret watermarking key.
package attack

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dht"
	"repro/internal/relation"
)

// AlterSubset implements the Subset Alteration attack: it chooses a
// random fraction frac of the tuples and overwrites the given columns
// with arbitrary values drawn from the column's plausible value set
// (values the attacker can see elsewhere in the table stay plausible, so
// the attack is not trivially filterable). It returns the number of
// altered tuples.
func AlterSubset(tbl *relation.Table, cols map[string][]string, frac float64, rng *rand.Rand) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("attack: fraction %v out of [0,1]", frac)
	}
	// Fixed column order: ranging over the map here would consume rng
	// draws in Go's randomized map order, making the attack (and every
	// figure derived from it) irreproducible across runs.
	names := make([]string, 0, len(cols))
	for col := range cols {
		names = append(names, col)
	}
	sort.Strings(names)
	colIdx := make(map[string]int, len(cols))
	for _, col := range names {
		if len(cols[col]) == 0 {
			return 0, fmt.Errorf("attack: no replacement values for column %s", col)
		}
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return 0, err
		}
		colIdx[col] = ci
	}
	n := tbl.NumRows()
	target := int(frac * float64(n))
	perm := rng.Perm(n)
	for i := 0; i < target; i++ {
		row := perm[i]
		for _, col := range names {
			values := cols[col]
			tbl.SetCellAt(row, colIdx[col], values[rng.Intn(len(values))])
		}
	}
	return target, nil
}

// AddSubset implements the Subset Addition attack: the attacker appends
// frac·N bogus tuples built by rowGen (typically BogusRowGenerator).
// The added tuples mislead Equation (5) into treating some of them as
// watermarked, polluting the majority vote. Returns the number added.
func AddSubset(tbl *relation.Table, frac float64, rowGen func(i int) []string) (int, error) {
	if frac < 0 {
		return 0, fmt.Errorf("attack: fraction %v negative", frac)
	}
	target := int(frac * float64(tbl.NumRows()))
	for i := 0; i < target; i++ {
		if err := tbl.AppendRow(rowGen(i)); err != nil {
			return i, err
		}
	}
	return target, nil
}

// BogusRowGenerator returns a rowGen for AddSubset that fabricates
// plausible tuples: fresh identifiers with the given prefix and uniform
// draws from each column's plausible value set. Columns without an entry
// in colValues receive an empty string.
func BogusRowGenerator(schema *relation.Schema, identCol, identPrefix string, colValues map[string][]string, rng *rand.Rand) func(i int) []string {
	names := schema.Names()
	return func(i int) []string {
		row := make([]string, len(names))
		for c, name := range names {
			switch {
			case name == identCol:
				row[c] = fmt.Sprintf("%s-%08d-%04d", identPrefix, i, rng.Intn(10000))
			default:
				if values := colValues[name]; len(values) > 0 {
					row[c] = values[rng.Intn(len(values))]
				}
			}
		}
		return row
	}
}

// DeleteRandom implements a Subset Deletion attack that drops a uniform
// random fraction of the tuples. Returns the number deleted.
func DeleteRandom(tbl *relation.Table, frac float64, rng *rand.Rand) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("attack: fraction %v out of [0,1]", frac)
	}
	n := tbl.NumRows()
	target := int(frac * float64(n))
	perm := rng.Perm(n)
	return target, tbl.DeleteRows(perm[:target])
}

// DeleteRanges implements the paper's Subset Deletion attack literally:
// repeated range deletions over the identifying column
// (DELETE FROM R WHERE SSN > lval_i AND SSN < uval_i), issued as `pieces`
// contiguous runs of the table sorted by that column, totalling frac·N
// tuples. Returns the number deleted.
func DeleteRanges(tbl *relation.Table, identCol string, frac float64, pieces int, rng *rand.Rand) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("attack: fraction %v out of [0,1]", frac)
	}
	if pieces < 1 {
		return 0, fmt.Errorf("attack: pieces must be >= 1")
	}
	ci, err := tbl.Schema().Index(identCol)
	if err != nil {
		return 0, err
	}
	// Sort a copy of the identifier column to pick range bounds the way a
	// SQL range delete over SSN would.
	ids, err := tbl.Column(identCol)
	if err != nil {
		return 0, err
	}
	sort.Strings(ids)
	n := len(ids)
	target := int(frac * float64(n))
	if target == 0 {
		return 0, nil
	}
	per := target / pieces
	if per == 0 {
		per = 1
	}
	deleted := 0
	for p := 0; p < pieces && deleted < target; p++ {
		remaining := target - deleted
		span := per
		if span > remaining {
			span = remaining
		}
		if span >= n {
			span = n - 1
		}
		start := rng.Intn(n - span)
		lval, uval := ids[start], ids[start+span-1]
		deleted += tbl.DeleteWhereView(func(row relation.RowView) bool {
			v := row.Cell(ci)
			return v >= lval && v <= uval
		})
	}
	return deleted, nil
}

// Generalize implements the §5.2 generalization attack: every value of
// the column is replaced by its ancestor `levels` levels up the tree,
// clamped so it never climbs past ceiling (the attacker keeps the data
// useful by staying within the published usage metrics). The attack needs
// no key. Returns the number of changed cells.
func Generalize(tbl *relation.Table, col string, tree *dht.Tree, ceiling dht.GenSet, levels int) (int, error) {
	if levels < 1 {
		return 0, fmt.Errorf("attack: levels must be >= 1")
	}
	if ceiling.Tree() != tree {
		return 0, fmt.Errorf("attack: ceiling frontier not over the column's tree")
	}
	ci, err := tbl.Schema().Index(col)
	if err != nil {
		return 0, err
	}
	// The climb is a pure function of the cell value, so it rewrites the
	// column dictionary: one AncestorAtDepth walk per distinct value, and
	// every row remaps by integer code.
	return tbl.MapColumnCtx(context.TODO(), 1, ci, func(dst []byte, old string) ([]byte, error) {
		id, err := tree.ResolveValue(old)
		if err != nil {
			return append(dst, old...), nil // not in domain; nothing to generalize
		}
		ceil, ok := ceiling.CoverOf(id)
		if !ok {
			return append(dst, old...), nil // already above the ceiling
		}
		targetDepth := tree.Node(id).Depth - levels
		if ceilDepth := tree.Node(ceil).Depth; targetDepth < ceilDepth {
			targetDepth = ceilDepth
		}
		anc, err := tree.AncestorAtDepth(id, targetDepth)
		if err != nil {
			return nil, err
		}
		return append(dst, tree.Value(anc)...), nil
	}, nil)
}

// Respecialize implements a laundering attack against hierarchical
// watermarks: each value is generalized `levels` up the tree (clamped at
// ceiling, like Generalize) and then re-specialized by descending random
// children back to a frontier member. The result looks exactly as
// specific as the original — unlike the generalization attack it leaves
// no visible trace — but the levels below the climb point now carry
// random bits while the levels above it still carry the mark. This is the
// scenario the §5.3 weighted-voting policy ("the copy from a higher level
// is more reliable") is designed for; the weighted-voting ablation (E10)
// quantifies it. Returns the number of changed cells.
func Respecialize(tbl *relation.Table, col string, tree *dht.Tree, ceiling, frontier dht.GenSet, levels int, rng *rand.Rand) (int, error) {
	if levels < 1 {
		return 0, fmt.Errorf("attack: levels must be >= 1")
	}
	if ceiling.Tree() != tree || frontier.Tree() != tree {
		return 0, fmt.Errorf("attack: frontiers not over the column's tree")
	}
	ci, err := tbl.Schema().Index(col)
	if err != nil {
		return 0, err
	}
	// The climb point is a function of the cell value: compute it once
	// per dictionary code. The random re-specialization descent stays
	// per-row — each row consumes its own rng draws, in row order, so
	// seeded attack runs reproduce the historical mutation sequence.
	type climb struct {
		planned bool
		skip    bool
		id, anc dht.NodeID
		err     error
	}
	dict := tbl.DictValues(ci)
	climbs := make([]climb, len(dict))
	planOf := func(code uint32) *climb {
		c := &climbs[code]
		if c.planned {
			return c
		}
		c.planned = true
		id, err := tree.ResolveValue(dict[code])
		if err != nil {
			c.skip = true
			return c
		}
		ceil, ok := ceiling.CoverOf(id)
		if !ok {
			c.skip = true
			return c
		}
		targetDepth := tree.Node(id).Depth - levels
		if ceilDepth := tree.Node(ceil).Depth; targetDepth < ceilDepth {
			targetDepth = ceilDepth
		}
		anc, err := tree.AncestorAtDepth(id, targetDepth)
		if err != nil {
			c.err = err
			return c
		}
		c.id, c.anc = id, anc
		return c
	}
	changed := 0
	for i := 0; i < tbl.NumRows(); i++ {
		code := tbl.CodeAt(i, ci)
		c := planOf(code)
		if c.skip {
			continue
		}
		if c.err != nil {
			return changed, c.err
		}
		// Descend random children until back on the frontier.
		cur := c.anc
		for !frontier.Contains(cur) {
			children := tree.Children(cur)
			if len(children) == 0 {
				// fell through the frontier: keep the original value
				cur = c.id
				break
			}
			cur = children[rng.Intn(len(children))]
		}
		if v := tree.Value(cur); v != dict[code] {
			tbl.SetCellAt(i, ci, v)
			changed++
		}
	}
	return changed, nil
}
