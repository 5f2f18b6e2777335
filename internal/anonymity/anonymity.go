// Package anonymity implements k-anonymity verification and the bin
// statistics of the paper. "Records containing the same value constitute
// a bin, and the size of every bin is at least equal to k" (Section 2).
// Figure 14's seamlessness experiment reports, per attribute, the total
// number of bins, the number of bins whose size changed under
// watermarking, and the number of bins that fell below k.
package anonymity

import (
	"fmt"

	"repro/internal/relation"
)

// keySep joins cell values into a bin key; \x1f (unit separator) cannot
// appear in normal cell values.
const keySep = "\x1f"

// appendBinKey appends the keySep-joined bin key of the given cell
// values to dst — the single definition of the key shape that Bins and
// Flow share.
func appendBinKey(dst []byte, cellAt func(i int) string, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, keySep...)
		}
		dst = append(dst, cellAt(i)...)
	}
	return dst
}

// Bins returns the bin-size map of the table over the given columns:
// bin value-combination → number of tuples. It is one Counter over the
// table.
func Bins(tbl *relation.Table, cols []string) (map[string]int, error) {
	var c Counter
	if err := c.Add(tbl, cols); err != nil {
		return nil, err
	}
	return c.Bins(), nil
}

// Counter accumulates bin sizes over a sequence of tables sharing the
// counted columns — a streamed write run counts every segment into one
// Counter. The scan is columnar: bin keys assemble from dictionary codes
// into a reused buffer and are looked up in a map from key to slot in a
// counts slice. A lookup m[string(b)] does not allocate where an
// increment or assignment would, so the key string is allocated once
// per distinct bin, not once per row. The zero value is ready to use.
type Counter struct {
	slot   map[string]int32
	counts []int
	key    []byte
}

// Add counts tbl's tuples into their bins over cols.
func (c *Counter) Add(tbl *relation.Table, cols []string) error {
	dicts, codes, err := columns(tbl, cols)
	if err != nil {
		return err
	}
	n := tbl.NumRows()
	key := c.key
	for row := 0; row < n; row++ {
		key = appendBinKey(key[:0], func(i int) string { return dicts[i][codes[i][row]] }, len(cols))
		c.AddKey(key, 1)
	}
	c.key = key
	return nil
}

// AddRows adds n (which may be negative) to the bin of each of tbl's
// given rows over cols. A write run counts a transformed segment once
// with Add, then takes each marked copy's difference with AddRows over
// the rows the mark selected: -1 before the embed, +1 after it.
func (c *Counter) AddRows(tbl *relation.Table, cols []string, rows []int32, n int) error {
	dicts, codes, err := columns(tbl, cols)
	if err != nil {
		return err
	}
	key := c.key
	for _, row := range rows {
		key = appendBinKey(key[:0], func(i int) string { return dicts[i][codes[i][row]] }, len(cols))
		c.AddKey(key, n)
	}
	c.key = key
	return nil
}

// columns returns the dictionaries and code vectors of tbl's cols.
func columns(tbl *relation.Table, cols []string) ([][]string, [][]uint32, error) {
	dicts := make([][]string, len(cols))
	codes := make([][]uint32, len(cols))
	for i, col := range cols {
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return nil, nil, err
		}
		dicts[i] = tbl.DictValues(ci)
		codes[i] = tbl.Codes(ci)
	}
	return dicts, codes, nil
}

// AddKey adds n tuples to the bin whose key is key. key is not
// retained.
func (c *Counter) AddKey(key []byte, n int) {
	s, ok := c.slot[string(key)]
	if !ok {
		if c.slot == nil {
			c.slot = make(map[string]int32)
		}
		s = int32(len(c.counts))
		c.slot[string(key)] = s
		c.counts = append(c.counts, 0)
	}
	c.counts[s] += n
}

// Bins returns the counted bin-size map, keyed as Bins keys it.
func (c *Counter) Bins() map[string]int {
	return c.Plus(nil)
}

// Plus returns the bin-size map of c's counts plus delta's (nil adds
// nothing): the bins after a transformation, from the bins counted
// before it and the difference over the tuples it moved. A bin whose
// size comes to 0 is absent, as it is from Bins over the transformed
// table.
func (c *Counter) Plus(delta *Counter) map[string]int {
	out := make(map[string]int, len(c.counts))
	for key, s := range c.slot {
		if n := c.counts[s]; n != 0 {
			out[key] = n
		}
	}
	if delta == nil {
		return out
	}
	for key, s := range delta.slot {
		if n := out[key] + delta.counts[s]; n != 0 {
			out[key] = n
		} else {
			delete(out, key)
		}
	}
	return out
}

// MinBinSize returns the smallest bin size of the table over cols.
// An empty table has min bin size 0.
func MinBinSize(tbl *relation.Table, cols []string) (int, error) {
	bins, err := Bins(tbl, cols)
	if err != nil {
		return 0, err
	}
	if len(bins) == 0 {
		return 0, nil
	}
	min := -1
	for _, n := range bins {
		if min < 0 || n < min {
			min = n
		}
	}
	return min, nil
}

// SatisfiesK reports whether every bin over cols holds at least k tuples
// — the paper's k-anonymity specification.
func SatisfiesK(tbl *relation.Table, cols []string, k int) (bool, error) {
	if tbl.NumRows() == 0 {
		return k <= 0, nil
	}
	min, err := MinBinSize(tbl, cols)
	if err != nil {
		return false, err
	}
	return min >= k, nil
}

// Stats summarizes the effect of a transformation on a bin map — one
// column of Figure 14.
type Stats struct {
	// Total is the number of distinct bins before the transformation.
	Total int
	// Changed is the number of original bins whose size changed.
	Changed int
	// BelowK is the number of bins (before or after) whose size dropped
	// below k after the transformation.
	BelowK int
	// NewBins counts value-combinations present only after the
	// transformation (created, e.g., by boundary permutation).
	NewBins int
}

// Compare computes the Figure 14 statistics between the bin maps of a
// table before and after watermarking, against the anonymity parameter k.
// Bins present before count toward Total; a before-bin missing after has
// size 0 (changed, and below k if k > 0).
func Compare(before, after map[string]int, k int) Stats {
	s := Stats{Total: len(before)}
	for key, nb := range before {
		na := after[key]
		if na != nb {
			s.Changed++
		}
		if na < k {
			s.BelowK++
		}
	}
	for key := range after {
		if _, ok := before[key]; !ok {
			s.NewBins++
			if after[key] < k {
				s.BelowK++
			}
		}
	}
	return s
}

// String renders the stats like a Figure 14 cell: "total changed belowK".
func (s Stats) String() string {
	return fmt.Sprintf("%d %d %d", s.Total, s.Changed, s.BelowK)
}

// BinFlow records, for one bin, how watermarking moved tuples — the
// empirical counterpart of Lemmas 1 and 2 (Section 6): the per-embedding
// probability of a bin losing a tuple (Pr−) should equal that of gaining
// one (Pr+), so on average watermarking neither shrinks nor grows bins.
type BinFlow struct {
	// Before and After are the bin sizes before/after watermarking.
	Before, After int
	// Out counts tuples that left this bin; In counts tuples that entered.
	Out, In int
}

// Flow compares per-row bin keys before and after watermarking over the
// same (row-aligned) tables, returning per-bin flow statistics keyed by
// the bin's value combination. Both tables must have equal row counts;
// the watermarking agent permutes values in place, so rows stay aligned.
func Flow(before, after *relation.Table, cols []string) (map[string]*BinFlow, error) {
	if before.NumRows() != after.NumRows() {
		return nil, fmt.Errorf("anonymity: row count mismatch %d vs %d", before.NumRows(), after.NumRows())
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci, err := before.Schema().Index(c)
		if err != nil {
			return nil, err
		}
		if _, err := after.Schema().Index(c); err != nil {
			return nil, err
		}
		idx[i] = ci
	}
	flows := make(map[string]*BinFlow)
	get := func(key string) *BinFlow {
		f := flows[key]
		if f == nil {
			f = &BinFlow{}
			flows[key] = f
		}
		return f
	}
	binKeyAt := func(t *relation.Table, i int) string {
		v := t.View(i)
		return string(appendBinKey(nil, func(c int) string { return v.Cell(idx[c]) }, len(idx)))
	}
	for i := 0; i < before.NumRows(); i++ {
		kb := binKeyAt(before, i)
		ka := binKeyAt(after, i)
		get(kb).Before++
		get(ka).After++
		if kb != ka {
			get(kb).Out++
			get(ka).In++
		}
	}
	return flows, nil
}
