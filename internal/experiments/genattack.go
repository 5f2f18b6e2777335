package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/ontology"
	"repro/internal/pool"
	"repro/internal/watermark"
)

// GeneralizationAttack validates the §5.2 claim (E8): the keyless
// generalization attack — generalizing every value one or more levels up
// the DHT, within the usage metrics — completely destroys the
// single-level scheme's mark while the hierarchical scheme survives on
// the surviving upper levels. The experiment embeds the same mark with
// both schemes into the zip_code column (whose binned frontier has
// uniform depth, as the single-level scheme requires) and sweeps the
// attack depth.
func GeneralizationAttack(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	setup, err := newWatermarkSetup(cfg, 20)
	if err != nil {
		return nil, err
	}
	const eta = 25

	// Single-level needs a uniform-depth frontier: re-bin zip to the ZIP3
	// level (depth 3), with regions (depth 1) as the metrics.
	base, cols, err := setup.zipAtDepth(3)
	if err != nil {
		return nil, err
	}
	zip := cols[ontology.ColZip]

	hier, err := setup.release(base, cols, setup.key(eta), cfg.Workers)
	if err != nil {
		return nil, err
	}
	// The §5.2 strawman has no core path: it embeds into base under the
	// identifiers the release encrypted. The plan suppresses no row, so
	// the two tables line up row for row.
	single := base.Clone()
	identIdx, _ := single.Schema().Index(setup.identCol)
	for i := 0; i < single.NumRows(); i++ {
		single.SetCellAt(i, identIdx, hier.Table.CellAt(i, identIdx))
	}
	params := watermark.Params{
		Key:                    setup.key(eta),
		Mark:                   setup.mark,
		Duplication:            cfg.Duplication,
		SaltPositionWithColumn: true,
	}
	if _, err := watermark.EmbedSingleLevel(single, setup.identCol, cols, params); err != nil {
		return nil, err
	}

	out := &Table{
		ID:     "E8 / §5.2 claim",
		Title:  "generalization attack: mark loss (%) for single-level vs hierarchical watermarking",
		Header: []string{"attack levels", "single-level loss %", "hierarchical loss %"},
		Notes: []string{
			"attack generalizes zip values up the tree (keyless), clamped at the usage metrics",
			"level 2 reaches the maximal nodes: every embedded level is erased, so both schemes read nothing",
		},
	}
	// Each attack depth clones and judges both schemes independently;
	// inside the fan-out the detects run sequentially.
	rows, err := pool.MapCtx(context.Background(), cfg.Workers, 3, func(levels int) ([]string, error) {
		hAtt := hier.Table.Clone()
		sAtt := single.Clone()
		if levels > 0 {
			if _, err := attack.Generalize(hAtt, ontology.ColZip, zip.Tree, zip.MaxGen, levels); err != nil {
				return nil, err
			}
			if _, err := attack.Generalize(sAtt, ontology.ColZip, zip.Tree, zip.MaxGen, levels); err != nil {
				return nil, err
			}
		}
		sRes, err := watermark.DetectSingleLevel(sAtt, setup.identCol, cols, params)
		if err != nil {
			return nil, err
		}
		sLoss, err := watermark.MarkLoss(setup.mark, sRes)
		if err != nil {
			return nil, err
		}
		hLoss, err := setup.markLoss(hAtt, hier.Provenance, eta)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%d", levels), pct(sLoss), pct(hLoss)}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, rows...)
	return out, nil
}
