package binning

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/anonymity"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/pool"
	"repro/internal/relation"
)

// Sketch is the bounded-memory summary the streaming planner searches
// over: per-quasi-column leaf histograms plus a joint quasi-tuple count
// table, accumulated segment by segment. The Figure 8 search never
// reads raw rows — mono binning consumes leaf histograms and the
// multi-attribute search a joint histogram — so the sketch is lossless
// for planning purposes while holding O(distinct quasi-tuples) state:
// identifying and other columns are never retained, and rows collapse
// into tuple counts the moment a segment is ingested.
//
// Tuples are keyed by their per-column leaf NodeIDs packed into the
// sketch's keyLayout. Leaf resolution runs once per distinct value via a
// per-column cache keyed by the value string — segment dictionaries are
// segment-local, so codes are never trusted across segments.
type Sketch struct {
	schema *relation.Schema
	quasi  []string
	colIdx []int
	trees  []*dht.Tree
	// leafCache memoizes value → leaf per column across segments.
	leafCache []map[string]dht.NodeID
	// hist is the pristine per-column leaf histogram (pre-suppression;
	// information loss is measured against it, so the metric describes
	// the published generalization of every ingested row).
	hist [][]int
	// layout packs a tuple's leaf NodeIDs into its key in tuples; the
	// search keys its joint bins with the same layout.
	layout keyLayout
	tuples map[uint64]int
	rows   int
}

// keyLayout is the one packing of a joint bin into a uint64 key. Column
// ci owns the bit field [l[ci], l[ci+1]), bits.Len(tree.Size()) wide, so
// the field holds a leaf NodeID (the sketch's tuples) or a covering
// NodeID+1, with 0 for "uncovered" (the search's bins); the last entry
// is the total width.
type keyLayout []uint

// newKeyLayout lays out the fields of trees in order. It refuses a set
// of trees whose fields need more than 64 bits.
func newKeyLayout(trees []*dht.Tree) (keyLayout, error) {
	l := make(keyLayout, len(trees)+1)
	for ci, tree := range trees {
		l[ci+1] = l[ci] + uint(bits.Len(uint(tree.Size())))
	}
	if l.width() > 64 {
		return nil, fmt.Errorf("binning: %d quasi columns need a %d-bit joint-bin key; the limit is 64 bits", len(trees), l.width())
	}
	return l, nil
}

// width is the number of key bits the fields use.
func (l keyLayout) width() uint { return l[len(l)-1] }

// field extracts column ci's field from key.
func (l keyLayout) field(key uint64, ci int) uint64 {
	return key >> l[ci] & (1<<(l[ci+1]-l[ci]) - 1)
}

// NewSketch prepares an empty sketch for the schema's quasi columns.
// Every quasi column must have a DHT in trees, and the joint-bin key
// must fit in 64 bits: each quasi column takes bits.Len(tree.Size())
// bits (the builtin schema's five trees take 35), and NewSketch refuses
// a schema whose columns need more.
func NewSketch(schema *relation.Schema, trees map[string]*dht.Tree) (*Sketch, error) {
	quasi := schema.QuasiColumns()
	if len(quasi) == 0 {
		return nil, fmt.Errorf("binning: schema has no quasi-identifying columns")
	}
	s := &Sketch{
		schema:    schema,
		quasi:     quasi,
		colIdx:    make([]int, len(quasi)),
		trees:     make([]*dht.Tree, len(quasi)),
		leafCache: make([]map[string]dht.NodeID, len(quasi)),
		hist:      make([][]int, len(quasi)),
		tuples:    make(map[uint64]int),
	}
	for ci, col := range quasi {
		tree, ok := trees[col]
		if !ok || tree == nil {
			return nil, fmt.Errorf("binning: no DHT for quasi column %s", col)
		}
		idx, err := schema.Index(col)
		if err != nil {
			return nil, err
		}
		s.colIdx[ci] = idx
		s.trees[ci] = tree
		s.leafCache[ci] = make(map[string]dht.NodeID)
		s.hist[ci] = make([]int, tree.Size())
	}
	layout, err := newKeyLayout(s.trees)
	if err != nil {
		return nil, err
	}
	s.layout = layout
	return s, nil
}

// Rows returns the number of rows ingested so far.
func (s *Sketch) Rows() int { return s.rows }

// Quasi returns the sketched quasi-column names in schema order.
func (s *Sketch) Quasi() []string { return s.quasi }

// Add folds one segment into the sketch. Leaf resolution happens per
// distinct dictionary entry (cached across segments by value string);
// the row loop is pure integer work. A resolution failure leaves the
// sketch untouched — all columns resolve before any count moves.
func (s *Sketch) Add(seg *relation.Table) error {
	segSchema := seg.Schema()
	colLeaves := make([][]dht.NodeID, len(s.quasi))
	colCodes := make([][]uint32, len(s.quasi))
	for ci, col := range s.quasi {
		idx := s.colIdx[ci]
		if segSchema != s.schema {
			i, err := segSchema.Index(col)
			if err != nil {
				return err
			}
			idx = i
		}
		tree := s.trees[ci]
		dict, codes := seg.DictValues(idx), seg.Codes(idx)
		used := make([]bool, len(dict))
		for _, code := range codes {
			used[code] = true
		}
		leafOf := make([]dht.NodeID, len(dict))
		for code, v := range dict {
			if !used[code] {
				continue
			}
			leaf, ok := s.leafCache[ci][v]
			if !ok {
				var err error
				leaf, err = tree.ResolveLeaf(v)
				if err != nil {
					return fmt.Errorf("binning: column %s value %q: %w", col, v, err)
				}
				s.leafCache[ci][v] = leaf
			}
			leafOf[code] = leaf
		}
		colLeaves[ci] = leafOf
		colCodes[ci] = codes
	}
	n := seg.NumRows()
	for row := 0; row < n; row++ {
		var key uint64
		for ci := range s.quasi {
			leaf := colLeaves[ci][colCodes[ci][row]]
			s.hist[ci][leaf]++
			key |= uint64(leaf) << s.layout[ci]
		}
		s.tuples[key]++
	}
	s.rows += n
	return nil
}

// decodeTuples materializes the distinct quasi-tuples as per-column
// leaf vectors plus a parallel count vector — the weighted form the
// multi-attribute search consumes. Map iteration order varies
// between runs, but every downstream computation (histograms, bin
// minima, violating sets, bin maps) is a sum or set union over the
// tuples, so the search outcome is order-independent.
func (s *Sketch) decodeTuples() ([][]dht.NodeID, []int) {
	leaves := make([][]dht.NodeID, len(s.quasi))
	for ci := range leaves {
		leaves[ci] = make([]dht.NodeID, 0, len(s.tuples))
	}
	counts := make([]int, 0, len(s.tuples))
	for key, n := range s.tuples {
		for ci := range leaves {
			leaves[ci] = append(leaves[ci], dht.NodeID(s.layout.field(key, ci)))
		}
		counts = append(counts, n)
	}
	return leaves, counts
}

// sketchTuples is the post-suppression tuple state a SearchResult
// retains: enough to compute the generalized bin statistics AutoEpsilon
// needs without any rows.
type sketchTuples struct {
	cols   []string
	trees  []*dht.Tree
	leaves [][]dht.NodeID
	counts []int
}

// SearchSketch runs stages 1–3 of the Figure 8 algorithm — usage-metric
// derivation, mono-attribute binning, multi-attribute binning — over a
// sketch and returns the searched frontiers. The search consumes only
// the sketch's histograms and tuple counts, so its cost scales with
// distinct quasi-tuples instead of rows, and the outcome (frontiers,
// losses, suppression, stats) is what a row-by-row search of the
// ingested table would find. The sketch itself is never mutated, so
// concurrent searches may share it; the aggressive rule's suppression
// runs on a private decoded copy.
func SearchSketch(ctx context.Context, sk *Sketch, cfg Config) (*SearchResult, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("binning: K must be >= 1, got %d", cfg.K)
	}
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("binning: Epsilon must be >= 0, got %d", cfg.Epsilon)
	}
	quasi := sk.quasi
	effectiveK := cfg.K + cfg.Epsilon

	// 1. Usage metrics in maximal-generalization-node form, from the
	// sketch's pristine histograms.
	maxGens := make(map[string]dht.GenSet, len(quasi))
	type colSetup struct {
		maxg dht.GenSet
	}
	setups, err := pool.MapCtx(ctx, cfg.Workers, len(quasi), func(i int) (colSetup, error) {
		col := quasi[i]
		tree, ok := cfg.Trees[col]
		if !ok || tree == nil {
			return colSetup{}, fmt.Errorf("binning: no DHT for quasi column %s", col)
		}
		if tree != sk.trees[i] {
			return colSetup{}, fmt.Errorf("binning: sketch for column %s was built over a different tree", col)
		}
		if g, ok := cfg.MaxGens[col]; ok {
			if g.Tree() != tree {
				return colSetup{}, fmt.Errorf("binning: maximal nodes for %s belong to a different tree", col)
			}
			return colSetup{maxg: g}, nil
		}
		if cfg.Metrics != nil {
			g, err := infoloss.DeriveMaxGen(tree, sk.hist[i], cfg.Metrics.Bound(col))
			if err != nil {
				return colSetup{}, err
			}
			return colSetup{maxg: g}, nil
		}
		return colSetup{maxg: dht.RootGenSet(tree)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, col := range quasi {
		maxGens[col] = setups[i].maxg
	}

	// 2. Mono-attribute binning. The conservative rule touches no
	// counts, so the columns fan out over the pristine marginals. The
	// aggressive rule suppresses tuples between columns (column i's
	// deletions change column i+1's marginal), so it decodes the joint
	// tuples once and walks the columns sequentially over the live set.
	minGens := make(map[string]dht.GenSet, len(quasi))
	monoStats := make(map[string]MonoStats, len(quasi))
	suppressed := 0
	suppressValues := make(map[string][]string)
	var tupleLeaves [][]dht.NodeID
	var tupleCounts []int

	if !cfg.Aggressive {
		type monoOut struct {
			gen   dht.GenSet
			stats MonoStats
		}
		outs, err := pool.MapCtx(ctx, cfg.Workers, len(quasi), func(i int) (monoOut, error) {
			col := quasi[i]
			g, st, err := MonoBinHist(sk.trees[i], maxGens[col], sk.hist[i], effectiveK, false)
			if err != nil {
				return monoOut{}, err
			}
			return monoOut{gen: g, stats: st}, nil
		})
		if err != nil {
			return nil, err
		}
		for i, col := range quasi {
			minGens[col] = outs[i].gen
			monoStats[col] = outs[i].stats
		}
		tupleLeaves, tupleCounts = sk.decodeTuples()
	} else {
		leaves, counts := sk.decodeTuples()
		alive := make([]bool, len(counts))
		for t := range alive {
			alive[t] = true
		}
		for ci, col := range quasi {
			tree := sk.trees[ci]
			hist := make([]int, tree.Size())
			for t, n := range counts {
				if alive[t] {
					hist[leaves[ci][t]] += n
				}
			}
			g, st, err := MonoBinHist(tree, maxGens[col], hist, effectiveK, true)
			if err != nil {
				return nil, err
			}
			if len(st.Deficient) > 0 {
				// Deficient bins: suppress their tuples, and record the
				// frontier values so the same suppression replays on any
				// row batch (Suppress) — e.g. when a plan built from this
				// search is applied to the streamed segments.
				values := make([]string, len(st.Deficient))
				for i, d := range st.Deficient {
					values[i] = tree.Value(d)
				}
				suppressValues[col] = values
				for t := range alive {
					if !alive[t] {
						continue
					}
					for _, d := range st.Deficient {
						if tree.IsAncestorOrSelf(d, leaves[ci][t]) {
							alive[t] = false
							suppressed += counts[t]
							break
						}
					}
				}
			}
			minGens[col] = g
			monoStats[col] = st
		}
		// Compact the survivors for the joint search.
		keep := 0
		for t := range alive {
			if alive[t] {
				keep++
			}
		}
		tupleLeaves = make([][]dht.NodeID, len(quasi))
		for ci := range tupleLeaves {
			tupleLeaves[ci] = make([]dht.NodeID, 0, keep)
		}
		tupleCounts = make([]int, 0, keep)
		for t := range alive {
			if !alive[t] {
				continue
			}
			for ci := range tupleLeaves {
				tupleLeaves[ci] = append(tupleLeaves[ci], leaves[ci][t])
			}
			tupleCounts = append(tupleCounts, counts[t])
		}
	}

	// 3. Multi-attribute binning over the weighted tuples.
	ultiGens, multiStats, err := multiBinLeaves(ctx, quasi, sk.layout, minGens, maxGens, effectiveK,
		cfg.Strategy, cfg.EnumLimit, cfg.Workers, tupleLeaves, tupleCounts)
	if err != nil {
		return nil, err
	}

	// Information loss per Equations (1)-(3), measured on the pristine
	// histograms (suppression notwithstanding, the metric describes the
	// published generalization).
	colLoss := make(map[string]float64, len(quasi))
	losses := make([]float64, 0, len(quasi))
	for i, col := range quasi {
		l, err := infoloss.ColumnLoss(ultiGens[col], sk.hist[i])
		if err != nil {
			return nil, err
		}
		colLoss[col] = l
		losses = append(losses, l)
	}
	avg := infoloss.NormalizedLoss(losses)
	if cfg.Metrics != nil {
		if err := cfg.Metrics.Check(colLoss); err != nil {
			return nil, err
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
		tuples: &sketchTuples{
			cols:   quasi,
			trees:  sk.trees,
			leaves: tupleLeaves,
			counts: tupleCounts,
		},
	}, nil
}

// GeneralizedBins returns the bin-size map the searched table would
// have after generalizing each of cols to its frontier in gens — the
// statistic EpsilonForMark consumes. It is computed from the retained
// post-suppression tuple counts, and its keys equal anonymity.Bins over
// the transformed table: a generalized cell value is exactly the value
// of the frontier member covering the cell's leaf.
func (s *SearchResult) GeneralizedBins(cols []string, gens map[string]dht.GenSet) (map[string]int, error) {
	if s.tuples == nil {
		return nil, fmt.Errorf("binning: search result retains no data for bin statistics")
	}
	st := s.tuples
	colAt := make([]int, len(cols))
	genVal := make([]map[dht.NodeID]string, len(cols))
	for i, c := range cols {
		ci := -1
		for j, col := range st.cols {
			if col == c {
				ci = j
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("binning: column %s is not a searched quasi column", c)
		}
		if _, ok := gens[c]; !ok {
			return nil, fmt.Errorf("binning: no generalization frontier for column %s", c)
		}
		colAt[i] = ci
		genVal[i] = make(map[dht.NodeID]string)
	}
	var out anonymity.Counter
	var key []byte
	ntuples := len(st.counts)
	for t := 0; t < ntuples; t++ {
		key = key[:0]
		for i, c := range cols {
			ci := colAt[i]
			leaf := st.leaves[ci][t]
			g, ok := genVal[i][leaf]
			if !ok {
				tree := st.trees[ci]
				member, covered := gens[c].CoverOf(leaf)
				if !covered {
					return nil, fmt.Errorf("binning: column %s value %q: %w", c, tree.Value(leaf),
						fmt.Errorf("dht: value %q sits above the generalization frontier of %s", tree.Value(leaf), tree.Attr()))
				}
				g = tree.Value(member)
				genVal[i][leaf] = g
			}
			if i > 0 {
				key = append(key, '\x1f')
			}
			key = append(key, g...)
		}
		out.AddKey(key, st.counts[t])
	}
	return out.Bins(), nil
}
