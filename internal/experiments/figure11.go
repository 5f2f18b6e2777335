package experiments

import (
	"context"
	"fmt"

	"repro/internal/binning"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/ontology"
	"repro/internal/pool"
)

// Figure11 reproduces "k vs. information loss" (E1): for each k, the
// Equation (3) normalized information loss after mono-attribute binning
// (every column binned individually) and after multi-attribute binning
// (the joint table satisfying k). The paper's observations to reproduce:
// multi-attribute binning loses far more information than mono-attribute
// binning, and both curves rise with k and then saturate.
func Figure11(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	ks := []int{10, 20, 45, 100, 150, 200, 250, 300, 350}

	tbl, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	trees := ontology.Trees()
	quasi := tbl.Schema().QuasiColumns()

	// Usage metrics for this experiment: unconstrained (root), so the
	// whole k range is binnable and the curves can saturate.
	maxGens := make(map[string]dht.GenSet, len(quasi))
	for _, col := range quasi {
		maxGens[col] = dht.RootGenSet(trees[col])
	}

	// Histograms once, straight off the dictionary-encoded columns, for
	// the mono-attribute losses; the sketch feeds every k's search.
	hists := make(map[string][]int, len(quasi))
	for _, col := range quasi {
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return nil, err
		}
		h, err := infoloss.LeafHistogramCodes(trees[col], tbl.DictValues(ci), tbl.Codes(ci))
		if err != nil {
			return nil, err
		}
		hists[col] = h
	}
	sk, err := binning.NewSketch(tbl.Schema(), trees)
	if err != nil {
		return nil, err
	}
	if err := sk.Add(tbl); err != nil {
		return nil, err
	}

	out := &Table{
		ID:     "E1 / Figure 11",
		Title:  "k vs. information loss (%), mono- vs multi-attribute binning",
		Header: []string{"k", "mono-attr loss %", "multi-attr loss %"},
		Notes: []string{
			"multi-attribute binning must generalize far beyond the per-column frontiers to make 5-column combinations k-anonymous",
		},
	}

	// Every k of the sweep searches the same read-only sketch
	// independently, so the points run concurrently; pool.Map returns
	// rows in k order.
	rows, err := pool.MapCtx(context.Background(), cfg.Workers, len(ks), func(ki int) ([]string, error) {
		k := ks[ki]
		res, err := binning.SearchSketch(context.TODO(), sk, binning.Config{
			K: k, Trees: trees, MaxGens: maxGens, Strategy: binning.StrategyGreedy, Workers: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		monoLosses := make([]float64, 0, len(quasi))
		for _, col := range quasi {
			l, err := infoloss.ColumnLoss(res.MinGens[col], hists[col])
			if err != nil {
				return nil, err
			}
			monoLosses = append(monoLosses, l)
		}
		return []string{fmt.Sprintf("%d", k), pct(infoloss.NormalizedLoss(monoLosses)), pct(res.AvgLoss)}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, rows...)
	return out, nil
}
