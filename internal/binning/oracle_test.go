package binning

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/pool"
	"repro/internal/relation"
)

// The row-scan reference search. It runs the Figure 8 stages 1–3 over
// the rows of a materialized table — the aggressive rule suppresses
// rows from a clone between the per-column searches, and the
// multi-attribute search counts every row once — and the differential
// tests check that SearchSketch, which sees only tuple counts, finds
// exactly the same outcome. Below it are the rescan ascent and the
// map-based minimum bin, the oracles of the greedy and the exhaustive
// multi-attribute searches.

// searchTable is the reference search. It returns the search result
// and the table it searched: tbl itself under the conservative rule
// (never mutated), or the suppressed clone under the aggressive rule.
func searchTable(ctx context.Context, tbl *relation.Table, cfg Config) (*SearchResult, *relation.Table, error) {
	if cfg.K < 1 {
		return nil, nil, fmt.Errorf("binning: K must be >= 1, got %d", cfg.K)
	}
	if cfg.Epsilon < 0 {
		return nil, nil, fmt.Errorf("binning: Epsilon must be >= 0, got %d", cfg.Epsilon)
	}
	schema := tbl.Schema()
	quasi := schema.QuasiColumns()
	if len(quasi) == 0 {
		return nil, nil, fmt.Errorf("binning: schema has no quasi-identifying columns")
	}
	effectiveK := cfg.K + cfg.Epsilon

	// 1. Usage metrics in maximal-generalization-node form. Each column
	// resolves its histogram and maximal nodes independently.
	maxGens := make(map[string]dht.GenSet, len(quasi))
	histograms := make(map[string][]int, len(quasi))
	type colSetup struct {
		hist []int
		maxg dht.GenSet
	}
	setups, err := pool.MapCtx(ctx, cfg.Workers, len(quasi), func(i int) (colSetup, error) {
		col := quasi[i]
		tree, ok := cfg.Trees[col]
		if !ok || tree == nil {
			return colSetup{}, fmt.Errorf("binning: no DHT for quasi column %s", col)
		}
		ci, err := schema.Index(col)
		if err != nil {
			return colSetup{}, err
		}
		// Dictionary-encoded histogram: one leaf resolution per distinct
		// value, integer counting per row.
		hist, err := infoloss.LeafHistogramCodes(tree, tbl.DictValues(ci), tbl.Codes(ci))
		if err != nil {
			return colSetup{}, fmt.Errorf("binning: column %s: %w", col, err)
		}
		if g, ok := cfg.MaxGens[col]; ok {
			if g.Tree() != tree {
				return colSetup{}, fmt.Errorf("binning: maximal nodes for %s belong to a different tree", col)
			}
			return colSetup{hist: hist, maxg: g}, nil
		}
		if cfg.Metrics != nil {
			g, err := infoloss.DeriveMaxGen(tree, hist, cfg.Metrics.Bound(col))
			if err != nil {
				return colSetup{}, err
			}
			return colSetup{hist: hist, maxg: g}, nil
		}
		return colSetup{hist: hist, maxg: dht.RootGenSet(tree)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, col := range quasi {
		histograms[col] = setups[i].hist
		maxGens[col] = setups[i].maxg
	}

	// 2. Mono-attribute binning (downward from the maximal nodes).
	minGens := make(map[string]dht.GenSet, len(quasi))
	monoStats := make(map[string]MonoStats, len(quasi))
	suppressed := 0
	suppressValues := make(map[string][]string)
	work := tbl

	// Under the conservative rule no bin is ever deficient, so no rows
	// are suppressed and the columns bin independently — fan them out.
	// The aggressive rule suppresses rows between columns (column i's
	// deletions change column i+1's histogram), so it stays sequential
	// and works on a private clone.
	if !cfg.Aggressive {
		type monoOut struct {
			gen   dht.GenSet
			stats MonoStats
		}
		outs, err := pool.MapCtx(ctx, cfg.Workers, len(quasi), func(i int) (monoOut, error) {
			// The conservative rule never suppresses, so work's histogram
			// equals the setup histogram — no second table scan.
			col := quasi[i]
			g, st, err := MonoBinHist(cfg.Trees[col], maxGens[col], setups[i].hist, effectiveK, false)
			if err != nil {
				return monoOut{}, err
			}
			return monoOut{gen: g, stats: st}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		for i, col := range quasi {
			minGens[col] = outs[i].gen
			monoStats[col] = outs[i].stats
		}
	} else {
		work = tbl.Clone()
		for _, col := range quasi {
			tree := cfg.Trees[col]
			colIdx, err := work.Schema().Index(col)
			if err != nil {
				return nil, nil, err
			}
			hist, err := infoloss.LeafHistogramCodes(tree, work.DictValues(colIdx), work.Codes(colIdx))
			if err != nil {
				return nil, nil, fmt.Errorf("binning: column %s: %w", col, err)
			}
			g, st, err := MonoBinHist(tree, maxGens[col], hist, effectiveK, true)
			if err != nil {
				return nil, nil, err
			}
			if len(st.Deficient) > 0 {
				// Aggressive rule produced under-k bins: suppress their rows
				// (the "suppression" half of generalization and suppression).
				// The deficient frontier values are recorded so the same
				// suppression replays on later batches (Suppress).
				values := make([]string, len(st.Deficient))
				for i, d := range st.Deficient {
					values[i] = tree.Value(d)
				}
				suppressValues[col] = values
				n, err := suppressColumn(work, colIdx, tree, values)
				if err != nil {
					return nil, nil, fmt.Errorf("binning: column %s: %w", col, err)
				}
				suppressed += n
			}
			minGens[col] = g
			monoStats[col] = st
		}
	}

	// 3. Multi-attribute binning.
	ultiGens, multiStats, err := multiBinTable(work, quasi, minGens, maxGens, effectiveK, cfg.Strategy, cfg.EnumLimit, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}

	// Information loss per Equations (1)-(3), measured on the original
	// histograms (suppression notwithstanding, the metric describes the
	// published generalization).
	colLoss := make(map[string]float64, len(quasi))
	losses := make([]float64, 0, len(quasi))
	for _, col := range quasi {
		l, err := infoloss.ColumnLoss(ultiGens[col], histograms[col])
		if err != nil {
			return nil, nil, err
		}
		colLoss[col] = l
		losses = append(losses, l)
	}
	avg := infoloss.NormalizedLoss(losses)
	if cfg.Metrics != nil {
		if err := cfg.Metrics.Check(colLoss); err != nil {
			return nil, nil, err
		}
	}

	return &SearchResult{
		MinGens:        minGens,
		MaxGens:        maxGens,
		UltiGens:       ultiGens,
		ColumnLoss:     colLoss,
		AvgLoss:        avg,
		EffectiveK:     effectiveK,
		Suppressed:     suppressed,
		SuppressValues: suppressValues,
		MonoStats:      monoStats,
		MultiStats:     multiStats,
	}, work, nil
}

// multiBinTable runs the multi-attribute search over the rows of tbl:
// every row is one position of the joint distribution, with weight 1.
func multiBinTable(
	tbl *relation.Table,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	strategy Strategy,
	enumLimit int,
	workers int,
) (map[string]dht.GenSet, MultiStats, error) {
	layout, err := layoutOf(cols, mingends)
	if err != nil {
		return nil, MultiStats{}, err
	}
	rowLeaves, err := resolveRowLeaves(context.Background(), tbl, cols, mingends)
	if err != nil {
		return nil, MultiStats{}, err
	}
	return multiBinLeaves(context.Background(), cols, layout, mingends, maxgends, k, strategy, enumLimit, workers, rowLeaves, ones(tbl.NumRows()), nil)
}

// layoutOf lays out the joint-bin key over the trees of cols' frontiers.
func layoutOf(cols []string, gens map[string]dht.GenSet) (keyLayout, error) {
	trees := make([]*dht.Tree, len(cols))
	for ci, col := range cols {
		trees[ci] = gens[col].Tree()
	}
	return newKeyLayout(trees)
}

// ones returns a weight slice that counts each of n rows once.
func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// resolveRowLeaves maps every row and column to its DHT leaf once, so
// candidate evaluation is pure array work. Resolution runs per distinct
// dictionary entry — the paper's "essentially categorical" observation —
// and rows fan out by integer code.
func resolveRowLeaves(ctx context.Context, tbl *relation.Table, cols []string, gens map[string]dht.GenSet) ([][]dht.NodeID, error) {
	out := make([][]dht.NodeID, len(cols))
	for ci, col := range cols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tree := gens[col].Tree()
		colIdx, err := tbl.Schema().Index(col)
		if err != nil {
			return nil, err
		}
		dict, codes := tbl.DictValues(colIdx), tbl.Codes(colIdx)
		used := make([]bool, len(dict))
		for _, code := range codes {
			used[code] = true
		}
		leafOf := make([]dht.NodeID, len(dict))
		for code, v := range dict {
			if !used[code] {
				continue
			}
			leaf, err := tree.ResolveLeaf(v)
			if err != nil {
				return nil, fmt.Errorf("binning: column %s value %q: %w", col, v, err)
			}
			leafOf[code] = leaf
		}
		leaves := make([]dht.NodeID, len(codes))
		for i, code := range codes {
			leaves[i] = leafOf[code]
		}
		out[ci] = leaves
	}
	return out, nil
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
// encodes as 0), and whether the full product fits in uint64. It does
// whenever the trees fit a keyLayout: a base is at most the tree size
// plus one, and a field of bits.Len(size) bits holds that many values.
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

// jointMinBin computes the minimum non-empty joint bin size under the
// per-column frontiers with a map over cover-index radix keys; position
// i contributes weights[i]. It is the reference for minJointBin.
func jointMinBin(rowLeaves [][]dht.NodeID, covers [][]int32, weights []int) int {
	if len(rowLeaves) == 0 || len(rowLeaves[0]) == 0 {
		return 0
	}
	rows := len(rowLeaves[0])
	bases, fits := binKeyBases(covers)
	if !fits {
		panic("binning: cover-index radix key overflows uint64")
	}
	counts := make(map[uint64]int, rows/4+1)
	for row := 0; row < rows; row++ {
		counts[radixKeyAt(rowLeaves, covers, bases, row)] += weights[row]
	}
	min := -1
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
// counts are partitioned by key so the merge parallelizes too; bin
// counting is a (weight) sum and member collection a set union — both
// order-independent — so every worker count yields the same sets.
func scanViolating(ctx context.Context, workers, k int, rowLeaves [][]dht.NodeID, covers [][]int32, weights []int, sizes []int, keyAt func(row int) uint64) ([][]bool, error) {
	rows := len(rowLeaves[0])
	chunks := pool.Chunks(workers, rows)
	nParts := len(chunks)
	keys := make([]uint64, rows)

	// Pass 1: every shard counts its rows into per-partition maps.
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
			key := keyAt(row)
			keys[row] = key
			parts[key%uint64(nParts)][key] += weights[row]
		}
		shardParts[si] = parts
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 2: merge each partition across shards — partitions are
	// disjoint key sets, so they merge concurrently.
	counts := make([]map[uint64]int, nParts)
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
			if counts[key%uint64(nParts)][key] < k {
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

// multiGreedyRescan is the row-rescan reference ascent: every iteration
// re-derives the violating members with a full-table scan. It is the
// differential oracle the incremental ascent (multiGreedy) is tested
// against, and keys its bins with its own cover-index radix rather than
// the keyLayout under test.
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
		bases, fits := binKeyBases(covers)
		if !fits {
			return nil, *stats, fmt.Errorf("binning: cover-index radix key overflows uint64")
		}
		violating, err := scanViolating(ctx, workers, k, rowLeaves, covers, weights, sizes, func(row int) uint64 {
			return radixKeyAt(rowLeaves, covers, bases, row)
		})
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
