package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/anonymity"
	"repro/internal/crypt"
)

// Seamlessness empirically validates Lemmas 1 and 2 of Section 6 (E7):
// for any bin, the probability that one bit-embedding removes a tuple
// (Pr−) equals the probability that it adds one (Pr+), so watermarking
// neither shrinks nor grows bins on average. The experiment embeds under
// many independent keys and reports, per column, the per-bin outflow and
// inflow rates and their mean absolute difference — which should be
// within sampling error of zero.
func Seamlessness(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	setup, err := newWatermarkSetup(cfg, 20)
	if err != nil {
		return nil, err
	}
	const eta = 50
	const trials = 10
	drifts, err := binDrift(setup, eta, trials)
	if err != nil {
		return nil, err
	}

	out := &Table{
		ID:    "E7 / §6 Lemmas 1-2",
		Title: "seamlessness: per-bin outflow (Pr−) vs inflow (Pr+) under repeated embeddings",
		Header: []string{
			"column", "bins", "total out", "total in",
			"net drift/bin/run", "mean bin size", "drift/size %",
		},
		Notes: []string{
			fmt.Sprintf("%d independent keys, η=%d; Lemmas 1-2 predict out ≈ in, so per-run net drift should be a tiny fraction of bin size", trials, eta),
		},
	}
	for _, d := range drifts {
		out.Rows = append(out.Rows, []string{
			d.col,
			fmt.Sprintf("%d", d.bins),
			fmt.Sprintf("%d", d.out),
			fmt.Sprintf("%d", d.in),
			fmt.Sprintf("%.2f", d.drift),
			fmt.Sprintf("%.0f", d.size),
			pct(d.rel),
		})
	}
	return out, nil
}

// trialKey is key with its selection and position keys salted by the
// trial number: binDrift's independent keys. The encryption key stays,
// so every trial publishes the same identifier tokens.
func trialKey(key crypt.WatermarkKey, trial int) crypt.WatermarkKey {
	key.K1 = append([]byte{byte(trial)}, key.K1...)
	key.K2 = append([]byte{byte(trial)}, key.K2...)
	return key
}

// colDrift is one quasi column's bin drift over repeated embeddings.
type colDrift struct {
	col     string
	bins    int     // bins of the column seen before or after embedding
	out, in int     // tuples that left and entered bins, over all trials
	drift   float64 // mean per-run |out−in| of a bin
	size    float64 // mean bin size before embedding
	rel     float64 // drift / size
}

// binDrift releases the setup's binned table under trials independent
// keys at η (trialKey) and measures, per quasi column in schema order,
// how far watermarking moves tuples between that column's bins (the E7
// metric, which E11 also reports with and without restrained swapping).
func binDrift(setup *wmSetup, eta uint64, trials int) ([]colDrift, error) {
	quasi := setup.binned.Schema().QuasiColumns()
	type agg struct {
		out, in int
		size    int
	}
	perCol := make(map[string]map[string]*agg, len(quasi))
	for _, col := range quasi {
		perCol[col] = make(map[string]*agg)
	}

	for trial := 0; trial < trials; trial++ {
		prot, err := setup.release(setup.binned, setup.columns, trialKey(setup.key(eta), trial), setup.cfg.Workers)
		if err != nil {
			return nil, err
		}
		for _, col := range quasi {
			flows, err := anonymity.Flow(setup.binned, prot.Table, []string{col})
			if err != nil {
				return nil, err
			}
			for key, f := range flows {
				a := perCol[col][key]
				if a == nil {
					a = &agg{size: f.Before}
					perCol[col][key] = a
				}
				a.out += f.Out
				a.in += f.In
			}
		}
	}

	drifts := make([]colDrift, 0, len(quasi))
	for _, col := range quasi {
		bins := perCol[col]
		// Sum in sorted bin order: float accumulation is order-sensitive
		// in the last digits, and map order would vary run to run.
		keys := make([]string, 0, len(bins))
		for key := range bins {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		d := colDrift{col: col, bins: len(keys)}
		sumDiff, sumSize := 0.0, 0.0
		for _, key := range keys {
			a := bins[key]
			d.out += a.out
			d.in += a.in
			sumDiff += math.Abs(float64(a.out-a.in)) / float64(trials)
			sumSize += float64(a.size)
		}
		if d.bins > 0 {
			d.drift = sumDiff / float64(d.bins)
			d.size = sumSize / float64(d.bins)
			if d.size > 0 {
				d.rel = d.drift / d.size
			}
		}
		drifts = append(drifts, d)
	}
	return drifts, nil
}
