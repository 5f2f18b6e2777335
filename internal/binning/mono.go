// Package binning implements the paper's binning algorithm (Section 4):
// mono-attribute downward binning (Figure 5), multi-attribute binning
// (Figure 7), and the complete binning step with identifier encryption
// (Figure 8), governed by usage metrics in the form of maximal
// generalization nodes.
package binning

import (
	"fmt"

	"repro/internal/dht"
	"repro/internal/infoloss"
)

// MonoStats reports work done by a mono-attribute binning run; the
// downward-vs-upward ablation (experiment E9, internal/experiments)
// compares NodesVisited.
type MonoStats struct {
	// NodesVisited counts tree nodes examined during the search.
	NodesVisited int
	// Deficient lists frontier nodes whose bins hold between 1 and k-1
	// tuples; empty under the conservative rule (the aggressive rule may
	// produce them, leaving suppression to the caller).
	Deficient []dht.NodeID
}

// MonoBin implements GenMinNd of Figure 5: starting from the maximal
// generalization nodes (the off-line-enforced usage metrics) it searches
// downward along the domain hierarchy tree for the minimal generalization
// nodes — the lowest valid generalization satisfying k-anonymity for this
// single column.
//
// The conservative minimality rule of the paper applies: a node is
// minimal if it meets k-anonymity but not all of its children do. With
// aggressive set, the sketched alternative applies instead: a node is not
// minimal if any child meets k-anonymity; children below k stay on the
// frontier and are reported as Deficient (callers may suppress them).
//
// Frontier members with zero tuples are retained: an empty bin threatens
// no one and a valid generalization must cover every leaf.
//
// It errors if some maximal generalization node holds 1..k-1 tuples —
// then the data are not binnable under the given usage metrics.
func MonoBin(tree *dht.Tree, maxg dht.GenSet, values []string, k int, aggressive bool) (dht.GenSet, MonoStats, error) {
	// Only guard the LeafHistogram call below against a nil tree;
	// MonoBinHist owns the real argument validation.
	if tree == nil {
		return dht.GenSet{}, MonoStats{}, fmt.Errorf("binning: maximal generalization nodes must belong to the column's tree")
	}
	hist, err := infoloss.LeafHistogram(tree, values)
	if err != nil {
		return dht.GenSet{}, MonoStats{}, err
	}
	return MonoBinHist(tree, maxg, hist, k, aggressive)
}

// MonoBinHist is MonoBin over a precomputed leaf histogram (as built by
// infoloss.LeafHistogram or, code-level, infoloss.LeafHistogramCodes) —
// the form the columnar pipeline uses so the table is scanned once.
func MonoBinHist(tree *dht.Tree, maxg dht.GenSet, hist []int, k int, aggressive bool) (dht.GenSet, MonoStats, error) {
	var stats MonoStats
	if tree == nil || maxg.Tree() != tree {
		return dht.GenSet{}, stats, fmt.Errorf("binning: maximal generalization nodes must belong to the column's tree")
	}
	if k < 1 {
		return dht.GenSet{}, stats, fmt.Errorf("binning: k must be >= 1, got %d", k)
	}
	sub := infoloss.SubtreeCounts(tree, hist)

	var frontier []dht.NodeID
	var walk func(nd dht.NodeID)
	walk = func(nd dht.NodeID) {
		stats.NodesVisited++
		children := tree.Children(nd)
		if len(children) == 0 {
			frontier = append(frontier, nd)
			return
		}
		if aggressive {
			// Descend if any child satisfies k; under-k children stay on
			// the frontier (deficient when non-empty).
			anyOK := false
			for _, c := range children {
				if sub[c] >= k {
					anyOK = true
					break
				}
			}
			if !anyOK {
				frontier = append(frontier, nd)
				return
			}
			for _, c := range children {
				if sub[c] >= k {
					walk(c)
					continue
				}
				stats.NodesVisited++
				frontier = append(frontier, c)
				if sub[c] > 0 {
					stats.Deficient = append(stats.Deficient, c)
				}
			}
			return
		}
		// Conservative rule (the paper's SubGMN): minimal if any child
		// fails k-anonymity.
		for _, c := range children {
			if sub[c] < k {
				frontier = append(frontier, nd)
				return
			}
		}
		for _, c := range children {
			walk(c)
		}
	}

	for _, nd := range maxg.Nodes() {
		n := sub[nd]
		if n == 0 {
			// no data below: keep the maximal node itself (empty bin)
			frontier = append(frontier, nd)
			stats.NodesVisited++
			continue
		}
		if n < k {
			return dht.GenSet{}, stats, fmt.Errorf(
				"binning: column %s not binnable: maximal generalization node %q holds %d < k=%d tuples: %w",
				tree.Attr(), tree.Value(nd), n, k, ErrUnsatisfiable)
		}
		walk(nd)
	}

	gen, err := dht.NewGenSet(tree, frontier)
	if err != nil {
		return dht.GenSet{}, stats, fmt.Errorf("binning: internal: %w", err)
	}
	return gen, stats, nil
}

// MonoBinUpward is the bottom-up comparator (the binning direction of
// earlier work the paper cites, e.g. Lin et al.): start from the leaf
// frontier and merge under-k members into their parents until every bin
// reaches k, refusing to climb past the maximal generalization nodes.
// It exists for the downward-vs-upward ablation; the framework itself
// uses MonoBin.
func MonoBinUpward(tree *dht.Tree, maxg dht.GenSet, values []string, k int) (dht.GenSet, MonoStats, error) {
	var stats MonoStats
	if tree == nil || maxg.Tree() != tree {
		return dht.GenSet{}, stats, fmt.Errorf("binning: maximal generalization nodes must belong to the column's tree")
	}
	if k < 1 {
		return dht.GenSet{}, stats, fmt.Errorf("binning: k must be >= 1, got %d", k)
	}
	hist, err := infoloss.LeafHistogram(tree, values)
	if err != nil {
		return dht.GenSet{}, stats, err
	}
	sub := infoloss.SubtreeCounts(tree, hist)

	cur := dht.LeafGenSet(tree)
	for {
		// Find a violating member: non-empty but under k, and not already
		// a maximal generalization node (those are checked at the end).
		var violator dht.NodeID = dht.None
		for _, nd := range cur.Nodes() {
			stats.NodesVisited++
			if n := sub[nd]; n > 0 && n < k && !maxg.Contains(nd) {
				violator = nd
				break
			}
		}
		if violator == dht.None {
			break
		}
		parent := tree.Parent(violator)
		if parent == dht.None {
			return dht.GenSet{}, stats, fmt.Errorf("binning: column %s not binnable upward at k=%d: %w", tree.Attr(), k, ErrUnsatisfiable)
		}
		if _, ok := maxg.CoverOf(parent); !ok {
			return dht.GenSet{}, stats, fmt.Errorf(
				"binning: column %s not binnable: merging %q would climb past the usage metrics: %w",
				tree.Attr(), tree.Value(violator), ErrUnsatisfiable)
		}
		// Merging requires all siblings on the frontier; they are, because
		// merges only ever replace whole child sets. Some siblings may
		// themselves sit below (already merged subtrees) — handle by
		// merging the deepest frontier members under parent first.
		next, err := mergeSubtree(cur, tree, parent)
		if err != nil {
			return dht.GenSet{}, stats, err
		}
		cur = next
	}
	// Terminal check against the usage-metric boundary.
	for _, nd := range cur.Nodes() {
		if n := sub[nd]; n > 0 && n < k {
			return dht.GenSet{}, stats, fmt.Errorf(
				"binning: column %s not binnable: node %q holds %d < k=%d tuples at the usage-metric boundary: %w",
				tree.Attr(), tree.Value(nd), n, k, ErrUnsatisfiable)
		}
	}
	return cur, stats, nil
}

// mergeSubtree collapses every frontier member strictly below nd into nd.
func mergeSubtree(g dht.GenSet, tree *dht.Tree, nd dht.NodeID) (dht.GenSet, error) {
	keep := []dht.NodeID{nd}
	for _, m := range g.Nodes() {
		if !tree.IsAncestorOrSelf(nd, m) {
			keep = append(keep, m)
		}
	}
	return dht.NewGenSet(tree, keep)
}
