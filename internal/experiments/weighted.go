package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/binning"
	"repro/internal/ontology"
	"repro/internal/pool"
)

// WeightedVotingAblation (E10) quantifies the §5.3 policy that "the copy
// from a higher level is more reliable than that from a lower level".
// The adversary mounts the re-specialization laundering attack: values
// are generalized one level and then randomly re-specialized back to the
// frontier, so lower levels carry random bits while upper levels keep the
// mark. Per-cell majority voting with level weights should then beat
// unweighted voting. The sweep varies the fraction of attacked tuples.
func WeightedVotingAblation(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	setup, err := newWatermarkSetup(cfg, 20)
	if err != nil {
		return nil, err
	}
	const eta = 25

	// Use the zip column at the ZIP5 frontier: three levels below the
	// region metrics, so re-specialization leaves two noisy levels below
	// one clean level — the regime where weighting matters.
	base, cols, err := setup.zipAtDepth(4)
	if err != nil {
		return nil, err
	}
	zip := cols[ontology.ColZip]
	ci, _ := base.Schema().Index(ontology.ColZip)

	prot, err := setup.release(base, cols, setup.key(eta), cfg.Workers)
	if err != nil {
		return nil, err
	}
	marked := prot.Table

	out := &Table{
		ID:     "E10 / §5.3 weighted voting",
		Title:  "re-specialization attack: mark loss (%) with unweighted vs level-weighted voting",
		Header: []string{"attacked %", "unweighted loss %", "weighted loss %"},
		Notes: []string{
			"attack: generalize 2 levels then randomly re-specialize to the frontier (lower levels random, top level intact)",
		},
	}
	// Each attack strength builds and judges its own attacked clone with
	// a seed derived from the strength — independent sweep points.
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	rows, err := pool.MapCtx(context.Background(), cfg.Workers, len(fracs), func(fi int) ([]string, error) {
		frac := fracs[fi]
		attacked := marked.Clone()
		if frac > 0 {
			// Respecialize a random subset: apply to a cloned subset view
			// by attacking everything on a fraction of rows.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(frac*100)))
			full := marked.Clone()
			if _, err := attack.Respecialize(full, ontology.ColZip, zip.Tree, zip.MaxGen, zip.UltiGen, 2, rng); err != nil {
				return nil, err
			}
			n := attacked.NumRows()
			target := int(frac * float64(n))
			perm := rng.Perm(n)
			for i := 0; i < target; i++ {
				attacked.SetCellAt(perm[i], ci, full.CellAt(perm[i], ci))
			}
		}
		row := []string{pct(frac)}
		for _, weighted := range []bool{false, true} {
			prov := prot.Provenance
			prov.WeightedVoting = weighted
			loss, err := setup.markLoss(attacked, prov, eta)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(loss))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, rows...)
	return out, nil
}

// SwappingAblation (E11) quantifies the §6 "restrained swapping"
// suggestion: equalizing sibling-bin sizes before watermarking makes
// Lemma 1's equal-bin assumption hold, reducing per-bin drift. The table
// reports the seamlessness drift metric with and without swapping.
func SwappingAblation(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	const eta = 50
	const trials = 6

	out := &Table{
		ID:     "E11 / §6 restrained swapping",
		Title:  "per-bin watermark drift without vs with restrained swapping",
		Header: []string{"column", "plain drift/size %", "swapped drift/size %", "tuples swapped"},
		Notes: []string{
			"swapping equalizes sibling bins (Lemma 1 assumption (i)); drift = mean per-run |out−in| / mean bin size",
		},
	}

	for _, swap := range []bool{false, true} {
		setup, err := newWatermarkSetup(cfg, 20)
		if err != nil {
			return nil, err
		}
		swapped := 0
		if swap {
			rng := rand.New(rand.NewSource(cfg.Seed))
			for _, col := range setup.binned.Schema().QuasiColumns() {
				n, err := binning.RestrainedSwap(setup.binned, col, setup.columns[col].UltiGen, 0, rng)
				if err != nil {
					return nil, err
				}
				swapped += n
			}
		}
		drifts, err := binDrift(setup, eta, trials)
		if err != nil {
			return nil, err
		}
		for i, d := range drifts {
			if !swap {
				out.Rows = append(out.Rows, []string{d.col, pct(d.rel), "", ""})
			} else {
				out.Rows[i][2] = pct(d.rel)
				out.Rows[i][3] = fmt.Sprintf("%d", swapped)
			}
		}
	}
	return out, nil
}
