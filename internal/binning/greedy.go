package binning

import (
	"context"
	"fmt"
	"slices"

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
// build the joint histogram's bins keyed by per-column covering NodeIDs
// packed into the sketch's keyLayout (stable across merges, unlike
// frontier member indices).
//
// Beside the bins it keeps, per column and component, the number of
// bins below k: a member violates exactly when its count is non-zero,
// so the move selection reads the sets the rescan derives without
// touching a bin, and takes the identical merge sequence: same
// frontier, same stats, byte-identical downstream output. A merge costs
// one filtering pass over the live bins plus work for the bins it
// moves: they leave the thin counts and re-key to the parent, a radix
// sort groups those that collide (no bin carries the parent before the
// merge, so only moved bins can), and the summed bins rejoin the live
// set and the counts.

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

// coverNodes maps every tree node to its covering frontier member's
// NodeID + 1, or 0 when uncovered, shifted into the column's key field.
func coverNodes(gen dht.GenSet, shift uint) []uint64 {
	tree := gen.Tree()
	table := make([]uint64, tree.Size())
	for _, m := range gen.Nodes() {
		for _, leaf := range tree.LeavesUnder(m) {
			table[leaf] = (uint64(m) + 1) << shift
		}
		table[m] = (uint64(m) + 1) << shift
	}
	return table
}

// jointBin is one bin of the joint histogram: its packed key and
// weight.
type jointBin struct {
	key uint64
	n   int
}

// jointBins scans the rows once, sharded over workers, and returns the
// joint histogram's bins keyed by packed covering NodeIDs, grouped by
// groupBins. Counts are weight sums, so every worker count yields the
// same bins.
func jointBins(ctx context.Context, workers int, rowLeaves [][]dht.NodeID, weights []int, cover [][]uint64, width uint) ([]jointBin, error) {
	bins := make([]jointBin, len(weights))
	if err := pool.ForEachChunkCtx(ctx, workers, len(bins), func(_, lo, hi int) error {
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			var key uint64
			for ci := range cover {
				key |= cover[ci][rowLeaves[ci][row]]
			}
			bins[row] = jointBin{key, weights[row]}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	bins, _ = groupBins(bins, nil, width)
	return bins, nil
}

// groupBins orders bins by their low width key bits with an LSD radix
// sort over bytes, using spare as scratch, and sums the weights of
// equal keys into one bin. It returns the grouped bins and the other
// buffer.
func groupBins(bins, spare []jointBin, width uint) (grouped, other []jointBin) {
	spare = slices.Grow(spare[:0], len(bins))[:len(bins)]
	for shift := uint(0); shift < width; shift += 8 {
		var start [256]int
		for _, bin := range bins {
			start[bin.key>>shift&0xff]++
		}
		for d, sum := 0, 0; d < 256; d++ {
			start[d], sum = sum, sum+start[d]
		}
		for _, bin := range bins {
			d := bin.key >> shift & 0xff
			spare[start[d]] = bin
			start[d]++
		}
		bins, spare = spare, bins
	}
	n := 0
	for i, bin := range bins {
		if i+1 < len(bins) && bins[i+1].key == bin.key {
			bins[i+1].n += bin.n
			continue
		}
		bins[n] = bin
		n++
	}
	return bins[:n], spare
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
	layout keyLayout,
	mingends, maxgends map[string]dht.GenSet,
	k, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	cur := make([]dht.GenSet, len(cols))
	cover := make([][]uint64, len(cols))
	thin := make([][]int, len(cols))
	for ci, col := range cols {
		cur[ci] = mingends[col]
		cover[ci] = coverNodes(cur[ci], layout[ci])
		thin[ci] = make([]int, cur[ci].Tree().Size()+1)
	}
	bins, err := jointBins(ctx, workers, rowLeaves, weights, cover, layout.width())
	if err != nil {
		return nil, *stats, err
	}
	// thin[ci][comp] counts the bins below k whose column-ci component
	// is comp.
	markThin := func(bin jointBin, d int) {
		if bin.n < k {
			for ci := range thin {
				thin[ci][layout.field(bin.key, ci)] += d
			}
		}
	}
	for _, bin := range bins {
		markThin(bin, 1)
	}

	memo := make([][]greedyMoveCand, len(cols))
	var moved, spare []jointBin
	for {
		if err := ctx.Err(); err != nil {
			return nil, *stats, err
		}
		// The ascent stops once no bin below k has a covered component.
		anyViolation := false
		for ci := range thin {
			anyViolation = anyViolation || slices.ContainsFunc(thin[ci][1:], func(n int) bool { return n > 0 })
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
					if thin[ci][c+1] > 0 {
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

		// Apply the merge: the bins keyed by a child of the merged parent
		// leave the live set and the thin counts and re-key to the
		// parent; sorted by key, those that collide sum, and the bins
		// they form rejoin the live set and re-enter the counts.
		ci, p := bestMove.ci, bestMove.parent
		next, err := cur[ci].MergeAt(p)
		if err != nil {
			return nil, *stats, fmt.Errorf("binning: internal: %w", err)
		}
		cur[ci] = next
		isChild := make([]bool, len(thin[ci]))
		for _, c := range next.Tree().Children(p) {
			isChild[c+1] = true
		}
		shift, width := layout[ci], layout[ci+1]-layout[ci]
		field, parent := (uint64(1)<<width-1)<<shift, (uint64(p)+1)<<shift
		live := bins[:0]
		moved = moved[:0]
		for _, bin := range bins {
			if !isChild[(bin.key&field)>>shift] {
				live = append(live, bin)
				continue
			}
			markThin(bin, -1)
			moved = append(moved, jointBin{bin.key&^field | parent, bin.n})
		}
		moved, spare = groupBins(moved, spare, layout.width())
		for _, bin := range moved {
			markThin(bin, 1)
			live = append(live, bin)
		}
		bins = live
		memo[ci] = nil
		stats.GreedyMerges++
	}

	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = cur[ci]
	}
	return out, *stats, nil
}
