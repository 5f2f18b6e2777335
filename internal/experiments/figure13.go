package experiments

import (
	"context"
	"fmt"

	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/pool"
)

// Figure13 reproduces "information loss of watermarking" (E5): the extra
// information loss that watermark permutations introduce beyond binning,
// as a function of η. A permuted cell is correct only up to its maximal
// generalization node, so it is charged the Equation (1)/(2) loss of that
// node instead of its (smaller) ultimate-node loss; unchanged cells keep
// the binning charge. The paper's observations: the loss is minor (single
// digits) and decreases as η grows (fewer marked tuples).
func Figure13(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	setup, err := newWatermarkSetup(cfg, 20)
	if err != nil {
		return nil, err
	}
	etas := []uint64{50, 75, 100, 150, 200}

	out := &Table{
		ID:     "E5 / Figure 13",
		Title:  "information loss of watermarking vs η",
		Header: []string{"η", "tuples marked", "cells changed", "extra info loss %"},
	}

	// Each η releases its own copy and scans it against the shared
	// read-only binned table — independent points, merged in η order.
	quasi := setup.binned.Schema().QuasiColumns()
	rows, err := pool.MapCtx(context.Background(), cfg.Workers, len(etas), func(ei int) ([]string, error) {
		eta := etas[ei]
		prot, err := setup.release(setup.binned, setup.columns, setup.key(eta), 1)
		if err != nil {
			return nil, err
		}
		marked, stats := prot.Table, prot.Embed

		// Per column: average per-cell charge delta between the
		// watermarked assignment and the pure binning assignment.
		var losses []float64
		for _, col := range quasi {
			spec := setup.columns[col]
			tree := spec.Tree
			ci, _ := marked.Schema().Index(col)
			total := 0.0
			n := marked.NumRows()
			for i := 0; i < n; i++ {
				if marked.CellAt(i, ci) == setup.binned.CellAt(i, ci) {
					continue
				}
				// changed cell: charged at the maximal node, minus the
				// ultimate-node charge binning already pays
				id, err := tree.ResolveValue(setup.binned.CellAt(i, ci))
				if err != nil {
					return nil, err
				}
				maxNode, ok := spec.MaxGen.CoverOf(id)
				if !ok {
					continue
				}
				total += nodeCharge(tree, maxNode) - nodeCharge(tree, id)
			}
			losses = append(losses, total/float64(n))
		}
		extra := infoloss.NormalizedLoss(losses)
		return []string{
			fmt.Sprintf("%d", eta),
			fmt.Sprintf("%d", stats.TuplesSelected),
			fmt.Sprintf("%d", stats.CellsChanged),
			pct(extra),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, rows...)
	return out, nil
}

// nodeCharge is the per-entry Equation (1)/(2) contribution of placing a
// value at node nd: interval width ratio for numeric trees, leaf-count
// ratio for categorical trees.
func nodeCharge(tree *dht.Tree, nd dht.NodeID) float64 {
	n := tree.Node(nd)
	if tree.Numeric() {
		root := tree.Node(tree.Root())
		return (n.Hi - n.Lo) / (root.Hi - root.Lo)
	}
	return float64(tree.NumLeavesUnder(nd)-1) / float64(tree.NumLeaves())
}
