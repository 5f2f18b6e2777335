package binning

import (
	"context"
	"fmt"

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
// exactly the same outcome.

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
	rowLeaves, err := resolveRowLeaves(context.Background(), tbl, cols, mingends)
	if err != nil {
		return nil, MultiStats{}, err
	}
	return multiBinLeaves(context.Background(), cols, mingends, maxgends, k, strategy, enumLimit, workers, rowLeaves, ones(tbl.NumRows()))
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
