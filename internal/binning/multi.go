package binning

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/dht"
	"repro/internal/pool"
)

// Strategy selects how multi-attribute binning searches the space of
// allowable generalizations (§4.2.2).
type Strategy int

const (
	// StrategyAuto enumerates exhaustively when the candidate product is
	// within EnumLimit and falls back to greedy otherwise.
	StrategyAuto Strategy = iota
	// StrategyExhaustive implements Figure 7 literally: enumerate every
	// combination of allowable generalizations, filter by k-anonymity,
	// select the one with minimal specificity loss.
	StrategyExhaustive
	// StrategyGreedy ascends the generalization lattice from the minimal
	// nodes, merging the cheapest frontier member that covers a violating
	// bin, until joint k-anonymity holds.
	StrategyGreedy
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyExhaustive:
		return "exhaustive"
	case StrategyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MultiStats reports the work done by multi-attribute binning.
type MultiStats struct {
	// Strategy actually used (after Auto resolution).
	Strategy Strategy
	// Candidates is the number of joint generalizations evaluated
	// (exhaustive) and Valid how many satisfied k-anonymity.
	Candidates, Valid int
	// GreedyMerges is the number of lattice ascent steps (greedy).
	GreedyMerges int
}

// DefaultEnumLimit bounds the exhaustive candidate product in Auto mode.
const DefaultEnumLimit = 4096

// multiBinLeaves implements GenUltiNd of Figure 7: given per-column
// minimal and maximal generalization nodes, it chooses the ultimate
// generalization — a per-column frontier between the bounds whose joint
// distribution satisfies k-anonymity with minimal specificity loss
// ((N−Ng)/N averaged over columns, the paper's efficient estimate).
//
// The joint distribution is a Sketch's distinct quasi-tuples: position
// i of every rowLeaves column is one tuple's leaf, and weights[i] its
// multiplicity. Bin sizes are weight sums, so the tuples yield exactly
// the histograms, violating sets and merge sequences of the rows they
// summarize.
//
// workers bounds the goroutines used by the search (<= 0 means
// GOMAXPROCS, 1 runs sequentially). The result is identical for every
// worker count: exhaustive candidates are ranked by (specificity loss,
// enumeration index), and the greedy scans merge order-independent sums.
func multiBinLeaves(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	strategy Strategy,
	enumLimit int,
	workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
) (map[string]dht.GenSet, MultiStats, error) {
	var stats MultiStats
	if enumLimit <= 0 {
		enumLimit = DefaultEnumLimit
	}

	// An empty sketch satisfies any k vacuously: keep the minimal nodes.
	if len(rowLeaves) == 0 || len(rowLeaves[0]) == 0 {
		out := make(map[string]dht.GenSet, len(cols))
		for _, c := range cols {
			out[c] = mingends[c]
		}
		stats.Strategy = strategy
		return out, stats, nil
	}

	// Resolve Auto by counting the candidate product with a cap.
	resolved := strategy
	if resolved == StrategyAuto {
		product := 1
		for _, c := range cols {
			n, err := dht.CountBetween(mingends[c], maxgends[c], enumLimit+1)
			if err != nil {
				return nil, stats, err
			}
			product *= n
			if product > enumLimit {
				break
			}
		}
		if product > enumLimit {
			resolved = StrategyGreedy
		} else {
			resolved = StrategyExhaustive
		}
	}
	stats.Strategy = resolved

	switch resolved {
	case StrategyExhaustive:
		return multiExhaustive(ctx, cols, mingends, maxgends, k, enumLimit, workers, rowLeaves, weights, &stats)
	case StrategyGreedy:
		return multiGreedy(ctx, cols, mingends, maxgends, k, workers, rowLeaves, weights, &stats)
	default:
		return nil, stats, fmt.Errorf("binning: unknown strategy %v", strategy)
	}
}

// coverTable maps every tree node to the index (into gen.Nodes()) of its
// covering member, or -1. Leaf lookups then run in O(1).
func coverTable(gen dht.GenSet) []int32 {
	tree := gen.Tree()
	table := make([]int32, tree.Size())
	for i := range table {
		table[i] = -1
	}
	for mi, m := range gen.Nodes() {
		for _, leaf := range tree.LeavesUnder(m) {
			table[leaf] = int32(mi)
		}
		table[m] = int32(mi)
	}
	return table
}

// binKeyBases returns, per column, the radix base for composing a joint
// bin key from cover indices (shifted by one so an uncovered leaf's -1
// encodes as 0), and whether the full product fits in uint64 — it does
// for any realistic tree set; the string fallback exists for safety.
func binKeyBases(covers [][]int32) ([]uint64, bool) {
	bases := make([]uint64, len(covers))
	prod := uint64(1)
	fits := true
	for ci, table := range covers {
		var maxIdx int32 = -1
		for _, mi := range table {
			if mi > maxIdx {
				maxIdx = mi
			}
		}
		base := uint64(maxIdx) + 2
		bases[ci] = base
		if prod > math.MaxUint64/base {
			fits = false
		} else {
			prod *= base
		}
	}
	return bases, fits
}

// radixKeyAt composes the uint64 joint-bin key of one row.
func radixKeyAt(rowLeaves [][]dht.NodeID, covers [][]int32, bases []uint64, row int) uint64 {
	var key uint64
	for ci := range covers {
		key = key*bases[ci] + uint64(covers[ci][rowLeaves[ci][row]]+1)
	}
	return key
}

// stringKeyAt composes the string joint-bin key of one row (fallback for
// degenerate trees whose radix product overflows).
func stringKeyAt(rowLeaves [][]dht.NodeID, covers [][]int32, row int) string {
	buf := make([]byte, 0, 4*len(covers))
	for ci := range covers {
		buf = strconv.AppendInt(buf, int64(covers[ci][rowLeaves[ci][row]]), 10)
		buf = append(buf, '|')
	}
	return string(buf)
}

// fnv64a is the partitioning hash for string bin keys.
func fnv64a(s string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// jointMinBin computes the minimum non-empty joint bin size under the
// per-column frontiers; position i contributes weights[i].
func jointMinBin(rowLeaves [][]dht.NodeID, covers [][]int32, weights []int) int {
	if len(rowLeaves) == 0 || len(rowLeaves[0]) == 0 {
		return 0
	}
	rows := len(rowLeaves[0])
	min := -1
	if bases, fits := binKeyBases(covers); fits {
		counts := make(map[uint64]int, rows/4+1)
		for row := 0; row < rows; row++ {
			counts[radixKeyAt(rowLeaves, covers, bases, row)] += weights[row]
		}
		for _, n := range counts {
			if min < 0 || n < min {
				min = n
			}
		}
		return min
	}
	counts := make(map[string]int, rows/4+1)
	for row := 0; row < rows; row++ {
		counts[stringKeyAt(rowLeaves, covers, row)] += weights[row]
	}
	for _, n := range counts {
		if min < 0 || n < min {
			min = n
		}
	}
	return min
}

// scanViolating computes, under the current covers, the per-column sets
// of frontier members (dense, indexed like gen.Nodes()) participating in
// bins below k. The table scan is sharded over workers and the bin
// counts are partitioned by key hash so the merge parallelizes too; bin
// counting is a (weight) sum and member collection a set union — both
// order-independent — so every worker count yields the same sets.
func scanViolating[K comparable](ctx context.Context, workers, k int, rowLeaves [][]dht.NodeID, covers [][]int32, weights []int, sizes []int, keyAt func(row int) K, hashOf func(K) uint64) ([][]bool, error) {
	rows := len(rowLeaves[0])
	chunks := pool.Chunks(workers, rows)
	nParts := len(chunks)
	keys := make([]K, rows)

	// Pass 1: every shard counts its rows into per-partition maps.
	shardParts := make([][]map[K]int, nParts)
	if err := pool.ForEachChunkCtx(ctx, workers, rows, func(si, lo, hi int) error {
		parts := make([]map[K]int, nParts)
		for p := range parts {
			parts[p] = make(map[K]int, (hi-lo)/(4*nParts)+1)
		}
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			key := keyAt(row)
			keys[row] = key
			parts[hashOf(key)%uint64(nParts)][key] += weights[row]
		}
		shardParts[si] = parts
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 2: merge each partition across shards — partitions are
	// disjoint key sets, so they merge concurrently.
	counts := make([]map[K]int, nParts)
	if err := pool.ForEachCtx(ctx, workers, nParts, func(p int) error {
		merged := shardParts[0][p]
		for si := 1; si < nParts; si++ {
			for key, n := range shardParts[si][p] {
				merged[key] += n
			}
		}
		counts[p] = merged
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 3: collect, per column, the frontier members of violating
	// rows into dense shard-local bitmaps, then OR them together.
	shardViol := make([][][]bool, nParts)
	if err := pool.ForEachChunkCtx(ctx, workers, rows, func(si, lo, hi int) error {
		viol := make([][]bool, len(covers))
		for ci := range viol {
			viol[ci] = make([]bool, sizes[ci])
		}
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			key := keys[row]
			if counts[hashOf(key)%uint64(nParts)][key] < k {
				for ci := range covers {
					if mi := covers[ci][rowLeaves[ci][row]]; mi >= 0 {
						viol[ci][mi] = true
					}
				}
			}
		}
		shardViol[si] = viol
		return nil
	}); err != nil {
		return nil, err
	}
	violating := shardViol[0]
	for _, shard := range shardViol[1:] {
		for ci := range violating {
			for mi, v := range shard[ci] {
				if v {
					violating[ci][mi] = true
				}
			}
		}
	}
	return violating, nil
}

// avgSpecificityLoss averages (N−Ng)/N across the chosen frontiers.
func avgSpecificityLoss(gens []dht.GenSet) float64 {
	if len(gens) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range gens {
		sum += g.SpecificityLoss()
	}
	return sum / float64(len(gens))
}

func multiExhaustive(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, enumLimit, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	// Materialize per-column allowable generalizations (EnumGen of the
	// paper, bounded by enumLimit on the total product).
	perCol := make([][]dht.GenSet, len(cols))
	product := 1
	for ci, col := range cols {
		var list []dht.GenSet
		err := dht.EnumerateBetween(mingends[col], maxgends[col], func(g dht.GenSet) bool {
			list = append(list, g)
			return product*len(list) <= enumLimit
		})
		if err != nil {
			return nil, *stats, err
		}
		if len(list) == 0 {
			return nil, *stats, fmt.Errorf("binning: no allowable generalization for %s", col)
		}
		perCol[ci] = list
		product *= len(list)
		if product > enumLimit {
			return nil, *stats, fmt.Errorf(
				"binning: candidate product exceeds limit %d; use StrategyGreedy or raise EnumLimit", enumLimit)
		}
	}

	// Cover tables are a function of the frontier alone, so build each
	// once up front instead of per candidate (the sequential walk used to
	// rebuild them for every combination).
	perColCovers := make([][][]int32, len(cols))
	for ci, list := range perCol {
		perColCovers[ci] = make([][]int32, len(list))
		for gi, g := range list {
			perColCovers[ci][gi] = coverTable(g)
		}
	}

	// Candidates form a mixed-radix index space with column 0 as the most
	// significant digit — the exact order the recursive walk visited them
	// in. Each candidate's k-anonymity check is independent, so they are
	// evaluated in parallel; the reduction below runs in index order,
	// keeping the min-loss/first-wins tie-break byte-identical to the
	// sequential search.
	decode := func(c int, idx []int) {
		for ci := len(cols) - 1; ci >= 0; ci-- {
			idx[ci] = c % len(perCol[ci])
			c /= len(perCol[ci])
		}
	}
	type verdict struct {
		valid bool
		loss  float64
	}
	verdicts := make([]verdict, product)
	if err := pool.ForEachCtx(ctx, workers, product, func(c int) error {
		idx := make([]int, len(cols))
		decode(c, idx)
		covers := make([][]int32, len(cols))
		choice := make([]dht.GenSet, len(cols))
		for ci, gi := range idx {
			covers[ci] = perColCovers[ci][gi]
			choice[ci] = perCol[ci][gi]
		}
		if jointMinBin(rowLeaves, covers, weights) < k {
			return nil
		}
		verdicts[c] = verdict{valid: true, loss: avgSpecificityLoss(choice)}
		return nil
	}); err != nil {
		return nil, *stats, err
	}

	stats.Candidates = product
	bestIdx := -1
	bestLoss := 0.0
	for c, v := range verdicts {
		if !v.valid {
			continue
		}
		stats.Valid++
		if bestIdx < 0 || v.loss < bestLoss {
			bestIdx, bestLoss = c, v.loss
		}
	}
	if bestIdx < 0 {
		return nil, *stats, fmt.Errorf(
			"binning: no allowable generalization satisfies k=%d: %w", k, ErrUnsatisfiable)
	}
	idx := make([]int, len(cols))
	decode(bestIdx, idx)
	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = perCol[ci][idx[ci]]
	}
	return out, *stats, nil
}

// multiGreedyRescan is the row-rescan reference ascent: every iteration
// re-derives the violating members with a full-table scan. It remains
// the fallback for degenerate tree sets whose packed per-column NodeID
// fields need more than 64 bits, and the differential oracle the
// incremental ascent (multiGreedy) is tested against.
func multiGreedyRescan(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	cur := make([]dht.GenSet, len(cols))
	for ci, col := range cols {
		cur[ci] = mingends[col]
	}
	covers := make([][]int32, len(cols))
	for ci := range cur {
		covers[ci] = coverTable(cur[ci])
	}

	for {
		// Identify the members (per column) participating in bins under
		// k. The lattice ascent is inherently iterative — every merge
		// depends on the previous one — but each iteration's full-table
		// scan shards across workers with a deterministic merge.
		sizes := make([]int, len(cur))
		for ci := range cur {
			sizes[ci] = cur[ci].Len()
		}
		var violating [][]bool
		var err error
		if bases, fits := binKeyBases(covers); fits {
			violating, err = scanViolating(ctx, workers, k, rowLeaves, covers, weights, sizes, func(row int) uint64 {
				return radixKeyAt(rowLeaves, covers, bases, row)
			}, func(key uint64) uint64 { return key })
		} else {
			violating, err = scanViolating(ctx, workers, k, rowLeaves, covers, weights, sizes, func(row int) string {
				return stringKeyAt(rowLeaves, covers, row)
			}, fnv64a)
		}
		if err != nil {
			return nil, *stats, err
		}
		anyViolation := false
		for _, col := range violating {
			for _, v := range col {
				if v {
					anyViolation = true
					break
				}
			}
		}
		if !anyViolation {
			break
		}

		// Candidate moves: merge a parent whose children are all frontier
		// members, staying within the maximal nodes. Prefer moves whose
		// merged member covers a violating bin; among those, the smallest
		// specificity-loss increase; deterministic tie-break.
		type move struct {
			ci     int
			parent dht.NodeID
			delta  float64
			helps  bool
		}
		var bestMove *move
		better := func(a, b *move) bool {
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
		for ci, col := range cols {
			tree := cur[ci].Tree()
			memberIndex := make(map[dht.NodeID]int32, cur[ci].Len())
			for mi, m := range cur[ci].Nodes() {
				memberIndex[m] = int32(mi)
			}
			for _, p := range cur[ci].MergeCandidates() {
				if _, ok := maxgends[col].CoverOf(p); !ok {
					continue // would climb past the usage metrics
				}
				helps := false
				for _, c := range tree.Children(p) {
					if violating[ci][memberIndex[c]] {
						helps = true
						break
					}
				}
				delta := float64(len(tree.Children(p))-1) / float64(tree.NumLeaves())
				m := &move{ci: ci, parent: p, delta: delta, helps: helps}
				if bestMove == nil || better(m, bestMove) {
					bestMove = m
				}
			}
		}
		if bestMove == nil {
			return nil, *stats, fmt.Errorf(
				"binning: greedy ascent exhausted at k=%d without satisfying k-anonymity: %w", k, ErrUnsatisfiable)
		}
		next, err := cur[bestMove.ci].MergeAt(bestMove.parent)
		if err != nil {
			return nil, *stats, fmt.Errorf("binning: internal: %w", err)
		}
		cur[bestMove.ci] = next
		covers[bestMove.ci] = coverTable(next)
		stats.GreedyMerges++
	}

	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = cur[ci]
	}
	return out, *stats, nil
}
