// Package infoloss implements the information-loss model and usage
// metrics of Section 4.1 of the paper:
//
//   - Equation (1): information loss of a generalized categorical column,
//     InfLoss_c = Σ n_i (|S_i|−1)/|S| / Σ n_i
//   - Equation (2): information loss of a generalized numeric column,
//     InfLoss_c = Σ n_i (U_i−L_i)/(U−L) / Σ n_i
//   - Equation (3): normalized loss averaged over generalized columns
//   - Equation (4): usage-metric bounds InfLoss_i ≤ bd_i, InfLoss ≤ bd_avg
//
// plus the off-line enforcement of the metrics: deriving the maximal
// generalization nodes — the highest valid generalization whose loss
// stays within the bound — so binning can start from them and never
// re-evaluate the metric (the paper's core efficiency argument).
package infoloss

import (
	"errors"
	"fmt"

	"repro/internal/dht"
)

// LeafHistogram counts, for each tree node ID, the number of column
// entries resolving to a leaf of that exact node (non-leaf positions stay
// zero). Raw numeric values resolve through their covering leaf interval.
func LeafHistogram(tree *dht.Tree, values []string) ([]int, error) {
	counts := make([]int, tree.Size())
	for i, v := range values {
		leaf, err := tree.ResolveLeaf(v)
		if err != nil {
			return nil, fmt.Errorf("infoloss: row %d: %w", i, err)
		}
		counts[leaf]++
	}
	return counts, nil
}

// LeafHistogramCodes is LeafHistogram over a dictionary-encoded column:
// each distinct value (dictionary entry) resolves to its leaf once, and
// the code vector is folded into the histogram with pure integer
// indexing — no per-row string hashing. Dictionary entries not present
// in codes are never resolved, so stale entries cannot fail the scan.
func LeafHistogramCodes(tree *dht.Tree, dict []string, codes []uint32) ([]int, error) {
	perCode := make([]int, len(dict))
	for code := range perCode {
		perCode[code] = -1
	}
	for _, code := range codes {
		perCode[code] = 0
	}
	leafOf := make([]dht.NodeID, len(dict))
	for code, v := range dict {
		if perCode[code] < 0 {
			continue // unused dictionary entry
		}
		leaf, err := tree.ResolveLeaf(v)
		if err != nil {
			return nil, fmt.Errorf("infoloss: value %q: %w", v, err)
		}
		leafOf[code] = leaf
	}
	counts := make([]int, tree.Size())
	for _, code := range codes {
		counts[leafOf[code]]++
	}
	return counts, nil
}

// SubtreeCounts turns a leaf histogram into per-node subtree sums:
// out[id] = number of entries whose leaf lies under id. This is the
// paper's NumTuple(SubTree(nd, tr), tbl) for every nd, computed once in
// O(nodes) instead of rescanning the table per subtree.
func SubtreeCounts(tree *dht.Tree, leafCounts []int) []int {
	out := make([]int, tree.Size())
	copy(out, leafCounts)
	// Nodes are stored in DFS preorder: children have larger IDs than
	// their parent, so a reverse scan accumulates bottom-up.
	for i := tree.Size() - 1; i >= 1; i-- {
		parent := tree.Parent(dht.NodeID(i))
		out[parent] += out[i]
	}
	return out
}

// ColumnLoss computes the information loss of generalizing a column to
// the frontier gen, given the column's leaf histogram. It dispatches to
// Equation (2) for numeric trees and Equation (1) for categorical trees.
// Entries under members with zero count contribute nothing (n_i = 0).
func ColumnLoss(gen dht.GenSet, leafCounts []int) (float64, error) {
	tree := gen.Tree()
	if tree == nil {
		return 0, errors.New("infoloss: zero generalization set")
	}
	if len(leafCounts) != tree.Size() {
		return 0, fmt.Errorf("infoloss: histogram size %d, tree size %d", len(leafCounts), tree.Size())
	}
	sub := SubtreeCounts(tree, leafCounts)
	var num, den float64
	if tree.Numeric() {
		root := tree.Node(tree.Root())
		domain := root.Hi - root.Lo
		for _, id := range gen.Nodes() {
			n := float64(sub[id])
			nd := tree.Node(id)
			num += n * (nd.Hi - nd.Lo) / domain
			den += n
		}
	} else {
		total := float64(tree.NumLeaves())
		for _, id := range gen.Nodes() {
			n := float64(sub[id])
			num += n * float64(tree.NumLeavesUnder(id)-1) / total
			den += n
		}
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// NormalizedLoss implements Equation (3): the average of the per-column
// losses over the CN generalized columns.
func NormalizedLoss(losses []float64) float64 {
	if len(losses) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range losses {
		sum += l
	}
	return sum / float64(len(losses))
}

// Metrics is the usage-metric bound set B of Equation (4): per-column
// maximal allowable information loss plus an average bound. A column
// absent from PerColumn is unconstrained (bound 1).
type Metrics struct {
	// PerColumn maps column name to bd_i ∈ [0,1].
	PerColumn map[string]float64
	// Avg is bd_avg ∈ [0,1]; zero means "unconstrained" only when no
	// entry was intended — use 1 to express that explicitly.
	Avg float64
}

// Validate checks the bounds are within [0,1].
func (m Metrics) Validate() error {
	for col, bd := range m.PerColumn {
		if bd < 0 || bd > 1 {
			return fmt.Errorf("infoloss: bound for %s out of [0,1]: %v", col, bd)
		}
	}
	if m.Avg < 0 || m.Avg > 1 {
		return fmt.Errorf("infoloss: average bound out of [0,1]: %v", m.Avg)
	}
	return nil
}

// Bound returns bd_i for a column (1 when unconstrained).
func (m Metrics) Bound(col string) float64 {
	if bd, ok := m.PerColumn[col]; ok {
		return bd
	}
	return 1
}

// Check enforces Equation (4) against measured per-column losses.
// It returns a descriptive error naming the first violated bound.
func (m Metrics) Check(losses map[string]float64) error {
	var sum float64
	for col, loss := range losses {
		if bd := m.Bound(col); loss > bd+1e-12 {
			return fmt.Errorf("infoloss: column %s loss %.4f exceeds bound %.4f", col, loss, bd)
		}
		sum += loss
	}
	if len(losses) > 0 && m.Avg > 0 {
		avg := sum / float64(len(losses))
		if avg > m.Avg+1e-12 {
			return fmt.Errorf("infoloss: average loss %.4f exceeds bound %.4f", avg, m.Avg)
		}
	}
	return nil
}

// DeriveMaxGen implements the off-line enforcement of §4.1: it returns
// maximal generalization nodes for one column — a valid generalization
// whose information loss stays within bound, with members as high in the
// tree as the bound allows. The search is top-down: start at {root} and
// repeatedly split the member contributing the most loss until the bound
// holds. The result is a (possibly non-unique) maximal frontier; the
// paper itself prefers the maximal nodes to be "directly given as the
// usage metrics", which callers can do instead.
//
// For numeric trees even the all-leaves frontier has positive loss
// (Equation 2 charges interval width); if bound is below that floor,
// DeriveMaxGen returns an error.
func DeriveMaxGen(tree *dht.Tree, leafCounts []int, bound float64) (dht.GenSet, error) {
	if bound < 0 || bound > 1 {
		return dht.GenSet{}, fmt.Errorf("infoloss: bound out of [0,1]: %v", bound)
	}
	cur := dht.RootGenSet(tree)
	for {
		loss, err := ColumnLoss(cur, leafCounts)
		if err != nil {
			return dht.GenSet{}, err
		}
		if loss <= bound+1e-12 {
			return cur, nil
		}
		// Split the member with the largest loss contribution that is
		// still splittable.
		sub := SubtreeCounts(tree, leafCounts)
		bestID := dht.None
		bestContrib := -1.0
		for _, id := range cur.Nodes() {
			if tree.Node(id).IsLeaf() {
				continue
			}
			var contrib float64
			if tree.Numeric() {
				root := tree.Node(tree.Root())
				nd := tree.Node(id)
				contrib = float64(sub[id]) * (nd.Hi - nd.Lo) / (root.Hi - root.Lo)
			} else {
				contrib = float64(sub[id]) * float64(tree.NumLeavesUnder(id)-1) / float64(tree.NumLeaves())
			}
			if contrib > bestContrib {
				bestContrib = contrib
				bestID = id
			}
		}
		if bestID == dht.None {
			return dht.GenSet{}, fmt.Errorf(
				"infoloss: bound %.4f unreachable for %s (all-leaves loss %.4f)", bound, tree.Attr(), loss)
		}
		next, err := cur.SplitAt(bestID)
		if err != nil {
			return dht.GenSet{}, err
		}
		cur = next
	}
}
