package binning

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

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

// sketchTuples is a decoded tuple state: per-column leaf vectors plus a
// parallel count vector over the sketch's quasi columns. A SearchSetup
// holds the pre-suppression tuples, a SearchResult the post-suppression
// ones, enough to compute the generalized bin statistics AutoEpsilon
// needs without any rows.
type sketchTuples struct {
	cols   []string
	trees  []*dht.Tree
	layout keyLayout
	leaves [][]dht.NodeID
	counts []int
}

// SearchSetup is the threshold-independent half of a sketch search:
// the usage metrics in maximal-generalization-node form (stage 1 of
// Figure 8), the sketch's pristine leaf histograms, and its distinct
// quasi-tuples decoded once, before any suppression. Search and
// SearchAutoEpsilon run the per-threshold stages over it, so the
// re-search at a raised ε repeats neither the decode nor the metric
// derivation. A setup keeps no reference to the sketch's tuple map: a
// caller that drops the sketch once the setup exists lets the map be
// reclaimed before the first ascent. A setup is never mutated, so
// concurrent searches may share it.
type SearchSetup struct {
	cfg     Config
	maxGens map[string]dht.GenSet
	hist    [][]int
	tuples  sketchTuples
}

// NewSearchSetup validates cfg against the sketch, derives the usage
// metrics from the sketch's pristine histograms and decodes its tuples:
// a snapshot, which later Adds to the sketch do not change. cfg.Epsilon
// is only validated; each Search names its own.
func NewSearchSetup(ctx context.Context, sk *Sketch, cfg Config) (*SearchSetup, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("binning: K must be >= 1, got %d", cfg.K)
	}
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("binning: Epsilon must be >= 0, got %d", cfg.Epsilon)
	}
	quasi := sk.quasi
	maxGens, err := pool.MapCtx(ctx, cfg.Workers, len(quasi), func(i int) (dht.GenSet, error) {
		col := quasi[i]
		tree, ok := cfg.Trees[col]
		if !ok || tree == nil {
			return dht.GenSet{}, fmt.Errorf("binning: no DHT for quasi column %s", col)
		}
		if tree != sk.trees[i] {
			return dht.GenSet{}, fmt.Errorf("binning: sketch for column %s was built over a different tree", col)
		}
		if g, ok := cfg.MaxGens[col]; ok {
			if g.Tree() != tree {
				return dht.GenSet{}, fmt.Errorf("binning: maximal nodes for %s belong to a different tree", col)
			}
			return g, nil
		}
		if cfg.Metrics != nil {
			return infoloss.DeriveMaxGen(tree, sk.hist[i], cfg.Metrics.Bound(col))
		}
		return dht.RootGenSet(tree), nil
	})
	if err != nil {
		return nil, err
	}
	setup := &SearchSetup{
		cfg:     cfg,
		maxGens: make(map[string]dht.GenSet, len(quasi)),
		hist:    make([][]int, len(quasi)),
		tuples:  sketchTuples{cols: quasi, trees: sk.trees, layout: sk.layout},
	}
	for i, col := range quasi {
		setup.maxGens[col] = maxGens[i]
		setup.hist[i] = slices.Clone(sk.hist[i])
	}
	setup.tuples.leaves, setup.tuples.counts = sk.decodeTuples()
	return setup, nil
}

// SearchSketch runs stages 1–3 of the Figure 8 algorithm — usage-metric
// derivation, mono-attribute binning, multi-attribute binning — over a
// sketch and returns the searched frontiers: NewSearchSetup followed by
// one Search at cfg.Epsilon. The search consumes only the sketch's
// histograms and tuple counts, so its cost scales with distinct
// quasi-tuples instead of rows, and the outcome (frontiers, losses,
// suppression, stats) is what a row-by-row search of the ingested table
// would find. The sketch itself is never mutated, so concurrent searches
// may share it.
func SearchSketch(ctx context.Context, sk *Sketch, cfg Config) (*SearchResult, error) {
	setup, err := NewSearchSetup(ctx, sk, cfg)
	if err != nil {
		return nil, err
	}
	return setup.Search(ctx, cfg.Epsilon)
}

// Search runs stages 2–3 of the Figure 8 algorithm at k+epsilon, with
// the setup's K: mono-attribute binning, the aggressive rule's
// suppression of the setup's pre-suppression tuples, and multi-attribute
// binning over the survivors. Information loss is measured on the
// pristine histograms. Searches at different epsilons are independent:
// each starts from the setup, never from an earlier search's survivors.
func (s *SearchSetup) Search(ctx context.Context, epsilon int) (*SearchResult, error) {
	if epsilon < 0 {
		return nil, fmt.Errorf("binning: Epsilon must be >= 0, got %d", epsilon)
	}
	effectiveK := s.cfg.K + epsilon
	mono, err := s.mono(ctx, effectiveK)
	if err != nil {
		return nil, err
	}
	return s.joint(ctx, mono, effectiveK, nil)
}

// SearchAutoEpsilon is the search of the Section 6 AutoEpsilon pass:
// Search at epsilon and, when the conservative ε that EpsilonForMark
// derives from that result's bins over cols for a wmdLen-bit replicated
// mark is larger, Search at that ε instead. Its result equals Search at
// the final ε, which is the result's EffectiveK − K.
//
// The raised search usually walks the same lattice path, so the first
// search records holds, the largest threshold at which it provably
// would (see greedyAscent and multiExhaustive). The raised search then
// redoes only mono-attribute binning: when that reproduces the first
// search's minimal frontiers and deficient nodes — and with them its
// suppression and surviving tuples — and k+ε <= holds, the first
// result stands, at the raised EffectiveK and with the raised stage's
// MonoStats. Otherwise multi-attribute binning runs at k+ε.
func (s *SearchSetup) SearchAutoEpsilon(ctx context.Context, epsilon int, cols []string, wmdLen int) (*SearchResult, error) {
	if epsilon < 0 {
		return nil, fmt.Errorf("binning: Epsilon must be >= 0, got %d", epsilon)
	}
	effectiveK := s.cfg.K + epsilon
	mono, err := s.mono(ctx, effectiveK)
	if err != nil {
		return nil, err
	}
	holds := math.MaxInt
	first, err := s.joint(ctx, mono, effectiveK, &holds)
	if err != nil {
		return nil, err
	}
	bins, err := first.GeneralizedBins(cols, first.UltiGens)
	if err != nil {
		return nil, err
	}
	eps := EpsilonForMark(bins, wmdLen)
	if eps <= epsilon {
		return first, nil
	}
	raisedK := s.cfg.K + eps
	raised, err := s.mono(ctx, raisedK)
	if err != nil {
		return nil, fmt.Errorf("binning: re-binning at k+ε=%d: %w", raisedK, err)
	}
	if raisedK <= holds && raised.sameFrontiers(mono) {
		res := *first
		res.EffectiveK, res.MonoStats = raisedK, raised.stats
		return &res, nil
	}
	res, err := s.joint(ctx, raised, raisedK, nil)
	if err != nil {
		return nil, fmt.Errorf("binning: re-binning at k+ε=%d: %w", raisedK, err)
	}
	return res, nil
}

// monoOutcome is stage 2 of a search at one threshold: the minimal
// frontiers and their work counters, the aggressive rule's suppression,
// and the tuples that survive it.
type monoOutcome struct {
	minGens        map[string]dht.GenSet
	stats          map[string]MonoStats
	suppressed     int
	suppressValues map[string][]string
	tuples         sketchTuples
}

// sameFrontiers reports whether m and o found the same minimal
// frontiers and deficient nodes. The suppression and the surviving
// tuples are functions of the deficient nodes, so they agree too.
func (m *monoOutcome) sameFrontiers(o *monoOutcome) bool {
	for col, g := range m.minGens {
		if !g.Equal(o.minGens[col]) || !slices.Equal(m.stats[col].Deficient, o.stats[col].Deficient) {
			return false
		}
	}
	return true
}

// mono runs stage 2 at effectiveK. The conservative rule touches no
// counts, so the columns fan out over the pristine marginals. The
// aggressive rule suppresses tuples between columns (column i's
// deletions change column i+1's marginal), so it walks the columns
// sequentially over the live tuples.
func (s *SearchSetup) mono(ctx context.Context, effectiveK int) (*monoOutcome, error) {
	cfg, quasi, trees := s.cfg, s.tuples.cols, s.tuples.trees
	m := &monoOutcome{
		minGens:        make(map[string]dht.GenSet, len(quasi)),
		stats:          make(map[string]MonoStats, len(quasi)),
		suppressValues: make(map[string][]string),
		tuples:         s.tuples,
	}
	if !cfg.Aggressive {
		type monoOut struct {
			gen   dht.GenSet
			stats MonoStats
		}
		outs, err := pool.MapCtx(ctx, cfg.Workers, len(quasi), func(i int) (monoOut, error) {
			g, st, err := MonoBinHist(trees[i], s.maxGens[quasi[i]], s.hist[i], effectiveK, false)
			return monoOut{gen: g, stats: st}, err
		})
		if err != nil {
			return nil, err
		}
		for i, col := range quasi {
			m.minGens[col] = outs[i].gen
			m.stats[col] = outs[i].stats
		}
		return m, nil
	}

	leaves, counts := s.tuples.leaves, s.tuples.counts
	alive := make([]bool, len(counts))
	for t := range alive {
		alive[t] = true
	}
	for ci, col := range quasi {
		tree := trees[ci]
		hist := make([]int, tree.Size())
		for t, n := range counts {
			if alive[t] {
				hist[leaves[ci][t]] += n
			}
		}
		g, st, err := MonoBinHist(tree, s.maxGens[col], hist, effectiveK, true)
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
			m.suppressValues[col] = values
			for t := range alive {
				if !alive[t] {
					continue
				}
				for _, d := range st.Deficient {
					if tree.IsAncestorOrSelf(d, leaves[ci][t]) {
						alive[t] = false
						m.suppressed += counts[t]
						break
					}
				}
			}
		}
		m.minGens[col] = g
		m.stats[col] = st
	}
	// Compact the survivors for the joint search.
	keep := 0
	for t := range alive {
		if alive[t] {
			keep++
		}
	}
	m.tuples.leaves = make([][]dht.NodeID, len(quasi))
	for ci := range m.tuples.leaves {
		m.tuples.leaves[ci] = make([]dht.NodeID, 0, keep)
	}
	m.tuples.counts = make([]int, 0, keep)
	for t := range alive {
		if !alive[t] {
			continue
		}
		for ci := range m.tuples.leaves {
			m.tuples.leaves[ci] = append(m.tuples.leaves[ci], leaves[ci][t])
		}
		m.tuples.counts = append(m.tuples.counts, counts[t])
	}
	return m, nil
}

// joint runs stage 3 at effectiveK over stage 2's outcome —
// multi-attribute binning over the weighted tuples — and measures the
// Equation (1)-(3) information loss on the pristine histograms
// (suppression notwithstanding, the metric describes the published
// generalization). A non-nil holds receives the search's certificate
// (see SearchAutoEpsilon).
func (s *SearchSetup) joint(ctx context.Context, m *monoOutcome, effectiveK int, holds *int) (*SearchResult, error) {
	cfg, quasi := s.cfg, s.tuples.cols
	ultiGens, multiStats, err := multiBinLeaves(ctx, quasi, m.tuples.layout, m.minGens, s.maxGens, effectiveK,
		cfg.Strategy, cfg.EnumLimit, cfg.Workers, m.tuples.leaves, m.tuples.counts, holds)
	if err != nil {
		return nil, err
	}
	colLoss := make(map[string]float64, len(quasi))
	losses := make([]float64, 0, len(quasi))
	for i, col := range quasi {
		l, err := infoloss.ColumnLoss(ultiGens[col], s.hist[i])
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
		MinGens:        m.minGens,
		MaxGens:        maps.Clone(s.maxGens),
		UltiGens:       ultiGens,
		ColumnLoss:     colLoss,
		AvgLoss:        avg,
		EffectiveK:     effectiveK,
		Suppressed:     m.suppressed,
		SuppressValues: m.suppressValues,
		MonoStats:      m.stats,
		MultiStats:     multiStats,
		tuples:         &m.tuples,
	}, nil
}

// GeneralizedBins returns the bin-size map the searched table would
// have after generalizing each of cols to its frontier in gens — the
// statistic EpsilonForMark consumes. It is computed from the retained
// post-suppression tuple counts, and its keys equal anonymity.Bins over
// the transformed table: a generalized cell value is exactly the value
// of the frontier member covering the cell's leaf. The tuples group on
// packed covering-node keys, so each distinct bin renders its string
// key once.
func (s *SearchResult) GeneralizedBins(cols []string, gens map[string]dht.GenSet) (map[string]int, error) {
	if s.tuples == nil {
		return nil, fmt.Errorf("binning: search result retains no data for bin statistics")
	}
	st := s.tuples
	colAt := make([]int, len(cols))
	cover := make([][]uint64, len(cols))
	for i, c := range cols {
		ci := slices.Index(st.cols, c)
		if ci < 0 {
			return nil, fmt.Errorf("binning: column %s is not a searched quasi column", c)
		}
		g, ok := gens[c]
		if !ok {
			return nil, fmt.Errorf("binning: no generalization frontier for column %s", c)
		}
		if g.Tree() != st.trees[ci] {
			return nil, fmt.Errorf("binning: frontier for column %s belongs to a different tree", c)
		}
		colAt[i] = ci
		cover[i] = coverNodes(g, st.layout[ci])
	}
	var tab binTable
	tab.reset(0)
	var bins []jointBin
	for t, n := range st.counts {
		var key uint64
		for i, ci := range colAt {
			leaf := st.leaves[ci][t]
			field := cover[i][leaf]
			if field == 0 {
				tree := st.trees[ci]
				return nil, fmt.Errorf("binning: column %s value %q: %w", cols[i], tree.Value(leaf),
					fmt.Errorf("dht: value %q sits above the generalization frontier of %s", tree.Value(leaf), tree.Attr()))
			}
			key |= field
		}
		bins = tab.add(bins, key, n)
	}
	out := make(map[string]int, len(bins))
	var key []byte
	for _, bin := range bins {
		key = key[:0]
		for i, ci := range colAt {
			if i > 0 {
				key = append(key, '\x1f')
			}
			key = append(key, st.trees[ci].Value(dht.NodeID(st.layout.field(bin.key, ci)-1))...)
		}
		out[string(key)] += bin.n
	}
	return out, nil
}
