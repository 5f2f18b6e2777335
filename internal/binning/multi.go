package binning

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
// The joint distribution is st's tuples: a Sketch's distinct
// quasi-tuples, each the joint bin of its rows under the leaf frontier.
// Bin sizes are weight sums, so the tuples yield exactly the
// histograms, violating sets and merge sequences of the rows they
// summarize. Both searches key the joint bins with st.layout, built over
// the trees of st.cols.
//
// workers bounds the goroutines used by the exhaustive search (<= 0
// means GOMAXPROCS, 1 runs sequentially); the greedy ascent runs on one.
// The result is identical for every worker count: exhaustive candidates
// are ranked by (specificity loss, enumeration index).
//
// A non-nil holds is lowered to the largest threshold k' >= k at which
// the same search over the same minimal frontiers and tuples provably
// returns the same frontiers and stats; an untouched holds means every
// k' does. Only SearchAutoEpsilon pays for the bound.
func multiBinLeaves(
	ctx context.Context,
	st *sketchTuples,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	strategy Strategy,
	enumLimit int,
	workers int,
	holds *int,
) (map[string]dht.GenSet, MultiStats, error) {
	var stats MultiStats
	if enumLimit <= 0 {
		enumLimit = DefaultEnumLimit
	}
	cols := st.cols

	// An empty sketch satisfies any k vacuously: keep the minimal nodes.
	if len(st.tuples) == 0 {
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
		return multiExhaustive(ctx, st, mingends, maxgends, k, enumLimit, workers, &stats, holds)
	case StrategyGreedy:
		return multiGreedy(ctx, st, mingends, maxgends, k, &stats, holds)
	default:
		return nil, stats, fmt.Errorf("binning: unknown strategy %v", strategy)
	}
}

// minJointBin returns the smallest bin of the joint histogram of st's
// tuples under the frontiers behind cover (as built by coverNodes): the
// exhaustive search's k-anonymity verdict for one candidate.
func minJointBin(ctx context.Context, st *sketchTuples, cover [][]uint64) (int, error) {
	var tab binTable
	tab.reset(0)
	bins, err := st.group(ctx, cover, &tab)
	if err != nil {
		return 0, err
	}
	return slices.MinFunc(bins, func(a, b jointBin) int { return cmp.Compare(a.n, b.n) }).n, nil
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

// multiExhaustive is Figure 7's exhaustive search. Valid candidates
// only shrink as k grows, so the valid set — hence the count and the
// chosen candidate — stays the same up to the smallest joint bin of any
// valid candidate: the bound it lowers holds to.
func multiExhaustive(
	ctx context.Context,
	st *sketchTuples,
	mingends, maxgends map[string]dht.GenSet,
	k, enumLimit, workers int,
	stats *MultiStats,
	holds *int,
) (map[string]dht.GenSet, MultiStats, error) {
	cols := st.cols
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
	// once up front instead of per candidate.
	perColCovers := make([][][]uint64, len(cols))
	for ci, list := range perCol {
		perColCovers[ci] = make([][]uint64, len(list))
		for gi, g := range list {
			perColCovers[ci][gi] = coverNodes(g, st.layout[ci])
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
		least int
	}
	verdicts := make([]verdict, product)
	if err := pool.ForEachCtx(ctx, workers, product, func(c int) error {
		idx := make([]int, len(cols))
		decode(c, idx)
		cover := make([][]uint64, len(cols))
		choice := make([]dht.GenSet, len(cols))
		for ci, gi := range idx {
			cover[ci] = perColCovers[ci][gi]
			choice[ci] = perCol[ci][gi]
		}
		least, err := minJointBin(ctx, st, cover)
		if err != nil || least < k {
			return err
		}
		verdicts[c] = verdict{valid: true, loss: avgSpecificityLoss(choice), least: least}
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
		if holds != nil {
			*holds = min(*holds, v.least)
		}
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
