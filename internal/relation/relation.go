// Package relation is the relational-table substrate of the framework.
// It models the paper's table tbl: a schema whose columns are classified
// by the identifying information they contain (Section 2 of the paper —
// identifying, quasi-identifying, or other), and a column-major,
// dictionary-encoded cell store with the mutation operations the attack
// models need (random alteration, tuple addition, random and range
// deletion).
//
// Representation. The paper observes that after binning the data become
// essentially categorical, so every column is stored as a string
// dictionary (code → value, deduplicated) plus a dense []uint32 code
// vector with one code per tuple. Hot paths — binning histograms,
// watermark scans, attack mutations — operate on the integer codes and
// precompute per-distinct-value work once per dictionary entry instead
// of once per row; the string API (Cell, Row, CSV) decodes
// on demand. Domain semantics (numeric intervals, categorical
// hierarchies) live in the dht package.
package relation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"unsafe"

	"repro/internal/pool"
)

// Kind classifies a column by the identifying information it contains
// (Section 2 of the paper).
type Kind int

const (
	// Identifying columns explicitly identify individuals (e.g. SSN).
	// The binning algorithm replaces them by encrypted values.
	Identifying Kind = iota
	// QuasiCategorical columns contain potentially identifying categorical
	// information (e.g. doctor, symptom) generalized over a categorical DHT.
	QuasiCategorical
	// QuasiNumeric columns contain potentially identifying numeric
	// information (e.g. age, zip) generalized over a numeric binary DHT.
	QuasiNumeric
	// Other columns carry no identifying information and are left intact.
	Other
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Identifying:
		return "identifying"
	case QuasiCategorical:
		return "quasi-categorical"
	case QuasiNumeric:
		return "quasi-numeric"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsQuasi reports whether the column is quasi-identifying.
func (k Kind) IsQuasi() bool { return k == QuasiCategorical || k == QuasiNumeric }

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered set of columns with unique names.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema validates and builds a schema.
func NewSchema(cols []Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, errors.New("relation: empty schema")
	}
	s := &Schema{cols: make([]Column, len(cols)), byName: make(map[string]int, len(cols))}
	copy(s.cols, cols)
	for i, c := range cols {
		if strings.TrimSpace(c.Name) == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for literals in tests and
// builtin schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Index returns the position of the named column.
func (s *Schema) Index(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("relation: no column %q", name)
	}
	return i, nil
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// ColumnsOfKind returns the names of all columns with the given kind, in
// schema order.
func (s *Schema) ColumnsOfKind(k Kind) []string {
	var out []string
	for _, c := range s.cols {
		if c.Kind == k {
			out = append(out, c.Name)
		}
	}
	return out
}

// QuasiColumns returns the names of all quasi-identifying columns.
func (s *Schema) QuasiColumns() []string {
	var out []string
	for _, c := range s.cols {
		if c.Kind.IsQuasi() {
			out = append(out, c.Name)
		}
	}
	return out
}

// IdentColumns returns the names of all identifying columns.
func (s *Schema) IdentColumns() []string { return s.ColumnsOfKind(Identifying) }

// column is one dictionary-encoded attribute vector: dict maps codes to
// values, index is the inverse (built lazily after Clone), codes holds
// one dictionary code per tuple.
type column struct {
	dict  []string
	index map[string]uint32
	codes []uint32
}

// ensureIndex (re)builds the value → code map. It is nil after Clone so
// read-only clones never pay for it. Not safe for concurrent use.
func (c *column) ensureIndex() {
	if c.index != nil {
		return
	}
	c.index = make(map[string]uint32, len(c.dict))
	for code, v := range c.dict {
		c.index[v] = uint32(code)
	}
}

// intern returns the code of v, inserting it into the dictionary if new.
// Inserted values are cloned so the dictionary never pins a caller's
// larger backing array (e.g. a CSV record buffer).
func (c *column) intern(v string) uint32 {
	c.ensureIndex()
	if code, ok := c.index[v]; ok {
		return code
	}
	code := uint32(len(c.dict))
	v = strings.Clone(v)
	c.dict = append(c.dict, v)
	c.index[v] = code
	return code
}

// Table is an in-memory relation: a schema plus one dictionary-encoded
// code vector per column.
type Table struct {
	schema *Schema
	cols   []column
}

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema, cols: make([]column, schema.NumColumns())}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return len(t.cols[0].codes) }

// AppendRow adds a tuple. The row length must match the schema. Cell
// values are interned into the per-column dictionaries.
func (t *Table) AppendRow(row []string) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("relation: row has %d cells, schema has %d columns", len(row), len(t.cols))
	}
	for ci := range t.cols {
		c := &t.cols[ci]
		c.codes = append(c.codes, c.intern(row[ci]))
	}
	return nil
}

// Row returns a copy of tuple i.
func (t *Table) Row(i int) []string {
	row := make([]string, len(t.cols))
	for ci := range t.cols {
		c := &t.cols[ci]
		row[ci] = c.dict[c.codes[i]]
	}
	return row
}

// Cell returns the value at row i, named column.
func (t *Table) Cell(i int, col string) (string, error) {
	ci, err := t.schema.Index(col)
	if err != nil {
		return "", err
	}
	if i < 0 || i >= t.NumRows() {
		return "", fmt.Errorf("relation: row %d out of range [0,%d)", i, t.NumRows())
	}
	return t.CellAt(i, ci), nil
}

// SetCell overwrites the value at row i, named column.
func (t *Table) SetCell(i int, col, value string) error {
	ci, err := t.schema.Index(col)
	if err != nil {
		return err
	}
	if i < 0 || i >= t.NumRows() {
		return fmt.Errorf("relation: row %d out of range [0,%d)", i, t.NumRows())
	}
	t.SetCellAt(i, ci, value)
	return nil
}

// CellAt is Cell by column index, without bounds checking on the column;
// for hot loops that already resolved the index. It is a dictionary
// lookup — no allocation.
func (t *Table) CellAt(i, col int) string {
	c := &t.cols[col]
	return c.dict[c.codes[i]]
}

// SetCellAt is SetCell by column index. The value is interned; writing a
// value already in the column's dictionary mutates only the code vector.
// Not safe for concurrent use (interning may grow the dictionary) — see
// SetCodeAt for the race-free sharded-writer path.
func (t *Table) SetCellAt(i, col int, value string) {
	c := &t.cols[col]
	c.codes[i] = c.intern(value)
}

// CodeAt returns the dictionary code of the cell at row i. Codes are
// stable under reads and SetCodeAt, and only grow (never shuffle) under
// interning writes; Delete*, Shuffle and Sort* reorder rows, and
// MapColumnCtx rebuilds the dictionary.
func (t *Table) CodeAt(i, col int) uint32 { return t.cols[col].codes[i] }

// SetCodeAt overwrites the cell at row i with an existing dictionary
// code (obtained from CodeAt, CodeOf or InternValue). It is a plain
// slice store, so concurrent writers on disjoint rows are safe. The code
// must be in range for the column's dictionary.
func (t *Table) SetCodeAt(i, col int, code uint32) {
	c := &t.cols[col]
	if int(code) >= len(c.dict) {
		panic(fmt.Sprintf("relation: column %d: code %d out of dictionary range [0,%d)", col, code, len(c.dict)))
	}
	c.codes[i] = code
}

// ValueOf decodes a dictionary code of the column.
func (t *Table) ValueOf(col int, code uint32) string { return t.cols[col].dict[code] }

// CodeOf returns the dictionary code of value in the column, if the
// value occurs in the dictionary. It may (re)build the column's inverse
// index, so it is not safe concurrently with itself or with interning
// writes on the same column.
func (t *Table) CodeOf(col int, value string) (uint32, bool) {
	c := &t.cols[col]
	c.ensureIndex()
	code, ok := c.index[value]
	return code, ok
}

// InternValue inserts value into the column's dictionary (if absent) and
// returns its code, without touching any row. Use it to pre-intern every
// value a sharded writer may store, then write codes with SetCodeAt.
func (t *Table) InternValue(col int, value string) uint32 {
	return t.cols[col].intern(value)
}

// DictValues returns the column's dictionary, indexed by code. The slice
// is shared with the table: callers must treat it as read-only, and it
// is stale after interning writes or MapColumnCtx.
func (t *Table) DictValues(col int) []string { return t.cols[col].dict }

// Codes returns the column's code vector (one code per row). The slice
// is shared with the table: callers must treat it as read-only, and it
// is stale after any row mutation.
func (t *Table) Codes(col int) []uint32 { return t.cols[col].codes }

// Column returns a decoded copy of the named column's values.
func (t *Table) Column(name string) ([]string, error) {
	ci, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	c := &t.cols[ci]
	out := make([]string, len(c.codes))
	for i, code := range c.codes {
		out[i] = c.dict[code]
	}
	return out, nil
}

// Clone returns a deep copy sharing the (immutable) schema. Cloning
// copies dictionaries and code vectors; the inverse indexes are rebuilt
// lazily, so read-only clones never pay for them.
func (t *Table) Clone() *Table {
	c := &Table{schema: t.schema, cols: make([]column, len(t.cols))}
	for ci := range t.cols {
		src := &t.cols[ci]
		dst := &c.cols[ci]
		dst.dict = append([]string(nil), src.dict...)
		dst.codes = append([]uint32(nil), src.codes...)
	}
	return c
}

// Slice returns a new table holding rows [lo, hi) of t, in order — the
// natural way to carve a delta batch out of a larger export. Column
// dictionaries are copied wholesale (codes stay valid without a remap);
// the code vectors copy only the requested range.
func (t *Table) Slice(lo, hi int) (*Table, error) {
	if lo < 0 || hi < lo || hi > t.NumRows() {
		return nil, fmt.Errorf("relation: slice [%d,%d) out of range [0,%d]", lo, hi, t.NumRows())
	}
	out := &Table{schema: t.schema, cols: make([]column, len(t.cols))}
	for ci := range t.cols {
		src := &t.cols[ci]
		dst := &out.cols[ci]
		dst.dict = append([]string(nil), src.dict...)
		dst.codes = append([]uint32(nil), src.codes[lo:hi]...)
	}
	return out, nil
}

// compact keeps exactly the rows for which keep[i] is true, preserving
// relative order.
func (t *Table) compact(keep []bool) {
	for ci := range t.cols {
		codes := t.cols[ci].codes
		kept := codes[:0]
		for i, code := range codes {
			if keep[i] {
				kept = append(kept, code)
			}
		}
		t.cols[ci].codes = kept
	}
}

// DeleteRows removes the tuples at the given indices (any order,
// duplicates tolerated). Remaining rows preserve their relative order.
func (t *Table) DeleteRows(indices []int) error {
	if len(indices) == 0 {
		return nil
	}
	n := t.NumRows()
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for _, i := range indices {
		if i < 0 || i >= n {
			return fmt.Errorf("relation: row %d out of range [0,%d)", i, n)
		}
		keep[i] = false
	}
	t.compact(keep)
	return nil
}

// DeleteWhereView removes all tuples for which pred returns true and
// reports how many were removed. This implements the paper's range
// deletion (DELETE FROM R WHERE SSN > lval AND SSN < uval) generically;
// pred reads cells (or codes) straight from the column store.
func (t *Table) DeleteWhereView(pred func(v RowView) bool) int {
	n := t.NumRows()
	keep := make([]bool, n)
	removed := 0
	for i := 0; i < n; i++ {
		if pred(RowView{t: t, i: i}) {
			removed++
		} else {
			keep[i] = true
		}
	}
	if removed > 0 {
		t.compact(keep)
	}
	return removed
}

// AppendTable appends all rows of other, which must share the schema
// column count. Cells are matched positionally; other's codes are
// remapped through a per-column dictionary translation built once, so
// the append is O(dict + rows) rather than per-cell hashing.
func (t *Table) AppendTable(other *Table) error {
	if len(other.cols) != len(t.cols) {
		return errors.New("relation: column count mismatch")
	}
	for ci := range t.cols {
		src := &other.cols[ci]
		dst := &t.cols[ci]
		remap := make([]uint32, len(src.dict))
		for code, v := range src.dict {
			remap[code] = dst.intern(v)
		}
		for _, code := range src.codes {
			dst.codes = append(dst.codes, remap[code])
		}
	}
	return nil
}

// RowView is a zero-copy accessor for one tuple of a table. It is valid
// only while the table's row set is unchanged.
type RowView struct {
	t *Table
	i int
}

// View returns a zero-copy view of tuple i.
func (t *Table) View(i int) RowView { return RowView{t: t, i: i} }

// Cell decodes the cell in the given column.
func (v RowView) Cell(col int) string { return v.t.CellAt(v.i, col) }

// Code returns the dictionary code of the cell in the given column.
func (v RowView) Code(col int) uint32 { return v.t.cols[col].codes[v.i] }

// AppendTo appends the decoded row to dst and returns it.
func (v RowView) AppendTo(dst []string) []string {
	for ci := range v.t.cols {
		c := &v.t.cols[ci]
		dst = append(dst, c.dict[c.codes[v.i]])
	}
	return dst
}

// DefaultChunk is the row-batch size of ForEachRowChunk when the caller
// passes chunk <= 0.
const DefaultChunk = 4096

// ForEachRowChunk calls fn with contiguous half-open row ranges
// [lo, hi) of at most chunk rows (DefaultChunk when chunk <= 0), in
// order, stopping at the first error. Batches bound the working set of
// streaming consumers; fn reads cells through the code-level accessors.
func (t *Table) ForEachRowChunk(chunk int, fn func(lo, hi int) error) error {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	n := t.NumRows()
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// MapColumnCtx rewrites one column through fn, calling fn once per
// distinct value in use instead of once per row: fn transforms
// dictionary entries, rows only have their codes remapped. fn appends
// the output for value to dst and returns the extended buffer. The
// dictionary is compacted (unused entries dropped, equal outputs
// merged) and the number of rows whose value changed is returned. fn
// must be deterministic; a row-level scan applying a deterministic fn
// yields exactly the same table.
//
// The per-entry fn calls fan out over workers (0 = GOMAXPROCS, 1 =
// sequential) under ctx. The dictionary is split into one contiguous
// range per worker, and each range appends its outputs to one arena,
// which is never written again once its range is done: the rebuilt
// dictionary holds strings over the arenas themselves, so a column of
// unique values (encrypted identifiers) costs no allocation or copy per
// entry. Equal outputs are merged through a codeIndex. The rebuilt
// dictionary is ordered by first use regardless of worker count, and
// the error of the lowest failing dictionary entry is reported.
//
// outLen, when not nil, declares fn injective — distinct values give
// distinct outputs — with outLen(value) output bytes for value, as
// crypt.TokenLen does for encryption. Each arena is then sized once,
// and the rebuilt dictionary is laid out without the codeIndex, since
// no two entries can merge. A map that is not injective (decryption:
// two base64 spellings of one token decode alike) passes nil.
func (t *Table) MapColumnCtx(ctx context.Context, workers, col int, fn func(dst []byte, value string) ([]byte, error), outLen func(value string) int) (int, error) {
	c := &t.cols[col]
	n := len(c.dict)
	if n == 0 {
		return 0, nil
	}
	rowsPer := make([]int, n)
	for _, code := range c.codes {
		rowsPer[code]++
	}
	// ends[k] is where entry k's output ends in its range's arena; it
	// starts where the previous entry of the range ends.
	chunks := pool.Chunks(workers, n)
	arenas := make([][]byte, len(chunks))
	ends := make([]int, n)
	if err := pool.ForEachChunkCtx(ctx, workers, n, func(si, lo, hi int) error {
		var arena []byte
		if outLen != nil {
			size := 0
			for k := lo; k < hi; k++ {
				if rowsPer[k] > 0 {
					size += outLen(c.dict[k])
				}
			}
			arena = make([]byte, 0, size)
		}
		for k := lo; k < hi; k++ {
			if err := pool.CtxAt(ctx, k-lo); err != nil {
				return err
			}
			if rowsPer[k] > 0 {
				var err error
				if arena, err = fn(arena, c.dict[k]); err != nil {
					return err
				}
			}
			ends[k] = len(arena)
		}
		arenas[si] = arena
		return nil
	}); err != nil {
		return 0, err
	}
	next := column{}
	var index codeIndex
	if outLen != nil {
		used := 0
		for _, r := range rowsPer {
			if r > 0 {
				used++
			}
		}
		next.dict = make([]string, 0, used)
	} else {
		index = newCodeIndex(n)
	}
	remap := make([]uint32, n)
	changed := 0
	for si, ch := range chunks {
		// The arena is complete: the strings over it are never written.
		arena := arenas[si]
		str := unsafe.String(unsafe.SliceData(arena), len(arena))
		start := 0
		for k := ch.Lo; k < ch.Hi; k++ {
			b, v := arena[start:ends[k]], str[start:ends[k]]
			start = ends[k]
			if rowsPer[k] == 0 {
				continue
			}
			code := uint32(len(next.dict))
			if outLen != nil {
				next.dict = append(next.dict, v)
			} else if prev, slot, ok := index.find(next.dict, b); ok {
				code = prev
			} else {
				next.dict = append(next.dict, v)
				index.add(next.dict, slot)
			}
			remap[k] = code
			if v != c.dict[k] {
				changed += rowsPer[k]
			}
		}
	}
	next.codes = c.codes
	for i, code := range next.codes {
		next.codes[i] = remap[code]
	}
	t.cols[col] = next
	return changed, nil
}

// Project returns a new table over the target schema, copying each
// target column's dictionary and code vector from the source column of
// the same name — a zero-decode columnar projection.
func (t *Table) Project(target *Schema) (*Table, error) {
	out := NewTable(target)
	for ci := 0; ci < target.NumColumns(); ci++ {
		si, err := t.schema.Index(target.Column(ci).Name)
		if err != nil {
			return nil, err
		}
		src := &t.cols[si]
		out.cols[ci].dict = append([]string(nil), src.dict...)
		out.cols[ci].codes = append([]uint32(nil), src.codes...)
	}
	return out, nil
}

// ReadCSV reads a table from r. The CSV header must contain exactly the
// schema's column names (in any order); cells are mapped by name. It
// drains a SegmentReader whose dictionaries are never retired, so the
// segments share one dictionary per column and the table is their code
// vectors concatenated: no [][]string row store is ever built and
// repeated values share one dictionary entry.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	sr, err := NewSegmentReader(r, schema, DefaultChunk)
	if err != nil {
		return nil, err
	}
	sr.dictCap = math.MaxInt
	t := NewTable(schema)
	for {
		seg, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for ci := range t.cols {
			t.cols[ci].codes = append(t.cols[ci].codes, seg.cols[ci].codes...)
		}
	}
	for ci := range t.cols {
		t.cols[ci].dict = sr.cols[ci].dict
	}
	return t, nil
}
