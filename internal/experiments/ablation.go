package experiments

import (
	"fmt"
	"time"

	"repro/internal/binning"
	"repro/internal/dht"
	"repro/internal/ontology"
)

// DownUpAblation validates the §4.2.1 claim (E9): "downward binning may
// have efficiency advantage over previous work that bins upward along the
// tree". For each k it runs both directions over every quasi column under
// the same usage metrics and reports nodes visited and wall-clock time.
// The advantage grows with k: larger k puts the minimal frontier closer
// to the maximal nodes, exactly where the downward search starts.
func DownUpAblation(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tbl, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	trees := ontology.Trees()
	quasi := tbl.Schema().QuasiColumns()
	maxGens := make(map[string]dht.GenSet, len(quasi))
	for _, col := range quasi {
		maxGens[col] = dht.RootGenSet(trees[col])
	}
	colValues := make(map[string][]string, len(quasi))
	for _, col := range quasi {
		v, err := tbl.Column(col)
		if err != nil {
			return nil, err
		}
		colValues[col] = v
	}

	out := &Table{
		ID:     "E9 / §4.2.1 claim",
		Title:  "downward vs upward mono-attribute binning (all quasi columns summed)",
		Header: []string{"k", "down nodes", "up nodes", "down µs", "up µs", "frontiers equal"},
	}
	for _, k := range []int{10, 50, 100, 200, 350} {
		var downNodes, upNodes int
		var downTime, upTime time.Duration
		equal := true
		for _, col := range quasi {
			start := time.Now()
			dGen, dStats, err := binning.MonoBin(trees[col], maxGens[col], colValues[col], k, false)
			if err != nil {
				return nil, fmt.Errorf("k=%d %s down: %w", k, col, err)
			}
			downTime += time.Since(start)
			downNodes += dStats.NodesVisited

			start = time.Now()
			uGen, uStats, err := binning.MonoBinUpward(trees[col], maxGens[col], colValues[col], k)
			if err != nil {
				return nil, fmt.Errorf("k=%d %s up: %w", k, col, err)
			}
			upTime += time.Since(start)
			upNodes += uStats.NodesVisited
			if !dGen.Equal(uGen) {
				equal = false
			}
		}
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", downNodes),
			fmt.Sprintf("%d", upNodes),
			fmt.Sprintf("%d", downTime.Microseconds()),
			fmt.Sprintf("%d", upTime.Microseconds()),
			fmt.Sprintf("%v", equal),
		})
	}
	return out, nil
}
