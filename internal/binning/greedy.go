package binning

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/pool"
)

// The incremental greedy lattice ascent.
//
// The rescan ascent pays three full-table passes per merge to re-derive
// the violating frontier members. But a merge changes the joint
// histogram in a purely local way: the only bins that move are those
// whose merged-column component is one of the merged parent's children,
// and they move to the bin keyed by the parent — MergeCandidates only
// offers parents whose children are all frontier members, so the set of
// covered leaves is invariant under the ascent and every other key
// component is untouched. multiGreedy therefore scans the rows once, to
// build a joint histogram keyed by per-column covering NodeIDs (stable
// across merges, unlike frontier member indices), and then delta-updates
// it between neighbouring lattice nodes in O(bins) per merge.
//
// The violating member sets fall out of the histogram (decode the keys
// of bins below k), so the move selection sees exactly the sets the
// rescan derives and takes the identical merge sequence: same frontier,
// same stats, byte-identical downstream output.

// greedyMove is one candidate lattice step.
type greedyMove struct {
	ci     int
	parent dht.NodeID
	delta  float64
	helps  bool
}

// betterGreedyMove is the rescan ascent's strict move order: helping
// moves first, then smallest specificity-loss increase, then the
// deterministic (column, parent) tie-break.
func betterGreedyMove(a, b *greedyMove) bool {
	if a.helps != b.helps {
		return a.helps
	}
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	if a.ci != b.ci {
		return a.ci < b.ci
	}
	return a.parent < b.parent
}

// nodeBases returns the per-column radix bases (tree size + 1, so 0 can
// encode "uncovered") and place values for composing a joint bin key
// from covering NodeIDs, and whether the product fits in uint64.
func nodeBases(cols []string, mingends map[string]dht.GenSet) (bases, places []uint64, fits bool) {
	bases = make([]uint64, len(cols))
	places = make([]uint64, len(cols))
	prod := uint64(1)
	for ci, col := range cols {
		base := uint64(mingends[col].Tree().Size()) + 1
		bases[ci] = base
		if prod > math.MaxUint64/base {
			return nil, nil, false
		}
		prod *= base
	}
	place := uint64(1)
	for ci := len(cols) - 1; ci >= 0; ci-- {
		places[ci] = place
		place *= bases[ci]
	}
	return bases, places, true
}

// coverNodes maps every tree node to its covering frontier member's
// NodeID + 1, or 0 when uncovered — coverTable with stable node
// identities instead of frontier indices.
func coverNodes(gen dht.GenSet) []uint64 {
	tree := gen.Tree()
	table := make([]uint64, tree.Size())
	for _, m := range gen.Nodes() {
		for _, leaf := range tree.LeavesUnder(m) {
			table[leaf] = uint64(m) + 1
		}
		table[m] = uint64(m) + 1
	}
	return table
}

// buildJointHist scans the rows once, sharded over workers, and returns
// the joint histogram keyed by covering-NodeID radix. Shards count into
// hash-partitioned maps merged partition-parallel, then the partitions
// fold into one map — counts are weight sums, so every worker count
// yields the same histogram.
func buildJointHist(ctx context.Context, workers int, rowLeaves [][]dht.NodeID, weights []int, cover [][]uint64, places []uint64) (map[uint64]int, error) {
	rows := len(rowLeaves[0])
	chunks := pool.Chunks(workers, rows)
	nParts := len(chunks)
	shardParts := make([][]map[uint64]int, nParts)
	if err := pool.ForEachChunkCtx(ctx, workers, rows, func(si, lo, hi int) error {
		parts := make([]map[uint64]int, nParts)
		for p := range parts {
			parts[p] = make(map[uint64]int, (hi-lo)/(4*nParts)+1)
		}
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			var key uint64
			for ci := range cover {
				key += cover[ci][rowLeaves[ci][row]] * places[ci]
			}
			parts[key%uint64(nParts)][key] += weights[row]
		}
		shardParts[si] = parts
		return nil
	}); err != nil {
		return nil, err
	}
	parts := make([]map[uint64]int, nParts)
	if err := pool.ForEachCtx(ctx, workers, nParts, func(p int) error {
		merged := shardParts[0][p]
		for si := 1; si < nParts; si++ {
			for key, n := range shardParts[si][p] {
				merged[key] += n
			}
		}
		parts[p] = merged
		return nil
	}); err != nil {
		return nil, err
	}
	hist := parts[0]
	for _, part := range parts[1:] {
		for key, n := range part {
			hist[key] += n
		}
	}
	return hist, nil
}

// greedyMoveCand is one memoized candidate merge of a column: the
// parent and its specificity-loss increase. Both are functions of the
// column's frontier alone, so the list is invalidated only when that
// column merges; whether the move helps depends on the current
// violating sets and is re-derived per iteration.
type greedyMoveCand struct {
	parent dht.NodeID
	delta  float64
}

func multiGreedy(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	bases, places, fits := nodeBases(cols, mingends)
	if !fits {
		return multiGreedyRescan(ctx, cols, mingends, maxgends, k, workers, rowLeaves, weights, stats)
	}

	cur := make([]dht.GenSet, len(cols))
	cover := make([][]uint64, len(cols))
	for ci, col := range cols {
		cur[ci] = mingends[col]
		cover[ci] = coverNodes(cur[ci])
	}
	hist, err := buildJointHist(ctx, workers, rowLeaves, weights, cover, places)
	if err != nil {
		return nil, *stats, err
	}

	viol := make([][]bool, len(cols))
	for ci := range cols {
		viol[ci] = make([]bool, cur[ci].Tree().Size())
	}
	memo := make([][]greedyMoveCand, len(cols))

	for {
		if err := ctx.Err(); err != nil {
			return nil, *stats, err
		}
		// Violating members, decoded from the histogram's thin bins.
		anyViolation := false
		for ci := range viol {
			clear(viol[ci])
		}
		for key, n := range hist {
			if n >= k {
				continue
			}
			for ci := range cols {
				if comp := (key / places[ci]) % bases[ci]; comp != 0 {
					viol[ci][comp-1] = true
					anyViolation = true
				}
			}
		}
		if !anyViolation {
			break
		}

		// Candidate moves: parents and deltas come from the per-column
		// memo; once a helping move is at hand, non-helping candidates
		// cannot win and are pruned without evaluation.
		var bestMove *greedyMove
		for ci, col := range cols {
			tree := cur[ci].Tree()
			if memo[ci] == nil {
				list := make([]greedyMoveCand, 0, 8)
				for _, p := range cur[ci].MergeCandidates() {
					if _, ok := maxgends[col].CoverOf(p); !ok {
						continue // would climb past the usage metrics
					}
					delta := float64(len(tree.Children(p))-1) / float64(tree.NumLeaves())
					list = append(list, greedyMoveCand{parent: p, delta: delta})
				}
				memo[ci] = list
			}
			for _, cand := range memo[ci] {
				helps := false
				for _, c := range tree.Children(cand.parent) {
					if viol[ci][c] {
						helps = true
						break
					}
				}
				if bestMove != nil && bestMove.helps && !helps {
					continue
				}
				m := &greedyMove{ci: ci, parent: cand.parent, delta: cand.delta, helps: helps}
				if bestMove == nil || betterGreedyMove(m, bestMove) {
					bestMove = m
				}
			}
		}
		if bestMove == nil {
			return nil, *stats, fmt.Errorf(
				"binning: greedy ascent exhausted at k=%d without satisfying k-anonymity: %w", k, ErrUnsatisfiable)
		}

		// Apply the merge: frontier, cover table, and the histogram
		// delta-update — bins keyed by a child of the merged parent
		// re-key to the parent and sum; every other bin is untouched.
		ci, p := bestMove.ci, bestMove.parent
		next, err := cur[ci].MergeAt(p)
		if err != nil {
			return nil, *stats, fmt.Errorf("binning: internal: %w", err)
		}
		cur[ci] = next
		tree := next.Tree()
		childComp := make(map[uint64]bool, len(tree.Children(p)))
		for _, c := range tree.Children(p) {
			childComp[uint64(c)+1] = true
			cover[ci][c] = uint64(p) + 1
		}
		for _, leaf := range tree.LeavesUnder(p) {
			cover[ci][leaf] = uint64(p) + 1
		}
		cover[ci][p] = uint64(p) + 1
		moved := make(map[uint64]int)
		for key, n := range hist {
			if comp := (key / places[ci]) % bases[ci]; childComp[comp] {
				delete(hist, key)
				moved[key-comp*places[ci]+(uint64(p)+1)*places[ci]] += n
			}
		}
		for key, n := range moved {
			hist[key] += n
		}
		memo[ci] = nil
		stats.GreedyMerges++
	}

	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = cur[ci]
	}
	return out, *stats, nil
}
