package experiments

import (
	"fmt"

	"repro/internal/anonymity"
	"repro/internal/binning"
)

// Figure14 reproduces "effect of watermarking on binning" (E6): for each
// k and each quasi-identifying attribute, the total number of bins, the
// number of bins whose size changed under watermarking, and the number of
// bins that fell below k. The paper's observation to reproduce: "a
// majority of the bins are affected by watermarking, whereas the
// interference is minor in terms of satisfying k-anonymity: none of the
// bins cannot meet k-anonymity after watermarking."
//
// Per Section 6, binning applies the conservative slack ε = (s/S)·|wmd|
// (k+ε during binning) so the watermark cannot push a bin below k.
func Figure14(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	ks := []int{10, 20, 45, 100}
	const eta = 75

	out := &Table{
		ID:    "E6 / Figure 14",
		Title: "effect of watermarking on binning (total bins / bins changed / bins < k)",
		Notes: []string{
			fmt.Sprintf("η=%d; binning applies the §6 conservative ε so the third number must be 0", eta),
		},
	}

	for _, k := range ks {
		// First pass to learn bin sizes, then re-bin at k+ε (§6), with
		// ε the maximum of the per-column conservative values.
		setup, err := newWatermarkSetup(cfg, k)
		if err != nil {
			return nil, err
		}
		quasi := setup.binned.Schema().QuasiColumns()
		eps := 0
		for _, col := range quasi {
			bins, err := anonymity.Bins(setup.binned, []string{col})
			if err != nil {
				return nil, err
			}
			if e := binning.EpsilonForMark(bins, cfg.MarkBits*cfg.Duplication); e > eps {
				eps = e
			}
		}
		// The conservative ε is an upper bound; if the data cannot be
		// binned at k+ε under the usage metrics (a maximal node holds
		// fewer than k+ε tuples), halve ε until binnable — any smaller
		// slack still only errs toward a non-zero third column.
		for eps > 0 {
			next, err := newWatermarkSetup(cfg, k+eps)
			if err == nil {
				setup = next
				break
			}
			eps /= 2
		}

		prot, err := setup.release(setup.binned, setup.columns, setup.key(eta), cfg.Workers)
		if err != nil {
			return nil, err
		}

		if len(out.Header) == 0 {
			out.Header = append([]string{"k"}, quasi...)
		}
		row := []string{fmt.Sprintf("%d", k)}
		for _, col := range quasi {
			before, err := anonymity.Bins(setup.binned, []string{col})
			if err != nil {
				return nil, err
			}
			after, err := anonymity.Bins(prot.Table, []string{col})
			if err != nil {
				return nil, err
			}
			stats := anonymity.Compare(before, after, k)
			row = append(row, stats.String())
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
