package relation

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"strings"

	"repro/internal/pool"
)

// SegmentReader streams a CSV input as a sequence of bounded *Table
// segments instead of materializing one giant table. All segments share
// the reader's per-column dictionaries: a value seen in segment 1 keeps
// the same dictionary code in segment 400, so per-distinct-value work
// (encryption, generalization, embed preludes) amortizes across the
// whole stream while the resident row set stays bounded by the chunk
// size.
//
// Each segment is a self-contained Table over the reader's schema. Its
// dictionaries are capacity-capped views of the shared ones: reads are
// plain lookups, and a consumer that interns new values (SetCellAt,
// MapColumnCtx) re-allocates privately without clobbering the shared
// backing — earlier segments and the reader itself stay valid.
//
// The reader decodes bytes, not records, and builds each segment piece
// by piece (at most pieceRows records at a time). It reads the source
// in blocks of at most readBlock bytes into one buffer that holds the
// current piece and is reused for the next. Record ends are found
// sequentially: a newline ends a record only when the record's quotes
// so far are balanced, so quoted newlines never split a record. The
// piece's records are then decoded in place into field spans
// (parseRecord, with encoding/csv's rules and errors), spread over
// workers by row range, and the fields are interned into the shared
// dictionaries with one goroutine per column walking the rows in order,
// so codes and dictionary order match a sequential read.
type SegmentReader struct {
	schema  *Schema
	src     io.Reader
	perm    []int // perm[csvCol] = schemaCol
	cols    []column
	index   []codeIndex // index[ci] finds values in cols[ci].dict
	chunk   int
	dictCap int
	lineNo  int // logical line of the next record; the header is line 1
	rows    int
	done    bool
	err     error

	// piece caps the records decoded at a time (pieceRows); workers
	// bounds the goroutines that decode and intern a full piece (<= 0
	// means GOMAXPROCS), and a shorter one runs on the calling
	// goroutine. Tests shrink piece to reach every path on small inputs.
	piece   int
	workers int

	// Byte-level scan state. buf[:recLo] holds the records found for
	// the current piece, buf[recLo:pos] the scanned part of the next
	// record, buf[pos:] bytes not yet scanned.
	buf     []byte
	pos     int
	recLo   int
	quotes  int // '"' bytes in buf[recLo:pos]
	line    int // newlines before pos
	recLine int // physical line recLo starts on
	guard   int // pending record length that triggers the next runaway check
	empties int // consecutive empty reads
	srcErr  error

	recs  []record
	tail  error  // parseRecord's end for the last of recs; nil if it has its newline
	cells []span // cells[row*len(cols)+schemaCol]
}

// record is one record's raw bytes, buf[lo:hi], whose first line is
// physical line line.
type record struct{ lo, hi, line int }

// span locates one decoded field in the reader's buffer.
type span struct{ lo, hi int }

const (
	// minDictCap floors the shared-dictionary retirement threshold so
	// that low-cardinality columns keep full cross-stream sharing even
	// under tiny chunk sizes.
	minDictCap = 16384
	// readBlock caps one source read — the window encoding/csv's
	// bufio.Reader reads with — so a caller metering the source per
	// segment sees at most one block read beyond the segment's records.
	readBlock = 4096
	// pieceRows caps the records decoded and interned at a time: a
	// segment is built piece by piece, so the byte buffer and the field
	// spans stay bounded whatever the chunk size, and a segment or
	// remainder shorter than one piece spawns no goroutines.
	pieceRows = 1024
	// guardMin is the length a record with an open quote may reach
	// before its complete lines are checked for a parse error, so a
	// stray quote cannot make the reader buffer the rest of the input.
	guardMin = 64 << 10
	// maxEmptyReads matches bufio's tolerance for (0, nil) reads.
	maxEmptyReads = 100
)

// NewSegmentReader prepares streaming ingest of r against schema,
// yielding at most chunk rows per segment (DefaultChunk when
// chunk <= 0). The CSV header is read and validated eagerly with the
// exact rules of ReadCSV: it must contain the schema's column names,
// each exactly once, in any order.
func NewSegmentReader(r io.Reader, schema *Schema, chunk int) (*SegmentReader, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	sr := &SegmentReader{
		schema:  schema,
		src:     r,
		cols:    make([]column, schema.NumColumns()),
		index:   make([]codeIndex, schema.NumColumns()),
		chunk:   chunk,
		dictCap: max(4*chunk, minDictCap),
		lineNo:  2,
		piece:   pieceRows,
		recLine: 1,
		guard:   guardMin,
	}
	for ci := range sr.index {
		sr.index[ci] = newCodeIndex(0)
	}
	recs := sr.scan(1)
	if len(recs) == 0 {
		return nil, fmt.Errorf("relation: reading header: %w", io.EOF)
	}
	h := recs[0]
	ends, err := parseRecord(sr.buf[h.lo:h.hi:h.hi], sr.tail, h.line, nil)
	if err != nil {
		return nil, fmt.Errorf("relation: reading header: %w", err)
	}
	header := make([]string, len(ends))
	prev := h.lo
	for i, e := range ends {
		header[i] = string(sr.buf[prev : h.lo+e])
		prev = h.lo + e
	}
	if sr.perm, err = headerPerm(header, schema); err != nil {
		return nil, err
	}
	return sr, nil
}

// headerPerm maps CSV column positions to schema positions, enforcing
// ReadCSV's header contract (exact column set, no duplicates).
func headerPerm(header []string, schema *Schema) ([]int, error) {
	if len(header) != schema.NumColumns() {
		return nil, fmt.Errorf("relation: header has %d columns, schema has %d", len(header), schema.NumColumns())
	}
	perm := make([]int, len(header))
	seen := make(map[string]bool)
	for i, name := range header {
		si, err := schema.Index(name)
		if err != nil {
			return nil, fmt.Errorf("relation: unexpected CSV column %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("relation: duplicate CSV column %q", name)
		}
		seen[name] = true
		perm[i] = si
	}
	return perm, nil
}

// Next returns the next segment of at most the configured chunk rows,
// or (nil, io.EOF) once the input is exhausted. A malformed record
// fails with the same "relation: line N" error ReadCSV reports, and
// the failure is sticky; so is a read error from the source, which the
// returned error wraps.
func (sr *SegmentReader) Next() (*Table, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.done {
		return nil, io.EOF
	}
	codes := make([][]uint32, len(sr.cols))
	for ci := range codes {
		codes[ci] = make([]uint32, 0, sr.chunk)
	}
	n := 0
	for n < sr.chunk {
		want := min(sr.chunk-n, sr.piece)
		recs := sr.scan(want)
		if len(recs) == 0 {
			break
		}
		workers := sr.workers
		if len(recs) < sr.piece {
			workers = 1
		}
		if err := sr.decode(workers, sr.lineNo+n, recs); err != nil {
			sr.err = err
			return nil, err
		}
		sr.intern(workers, len(recs), codes)
		n += len(recs)
		if len(recs) < want {
			break // the input is over
		}
	}
	if n == 0 {
		sr.done = true
		return nil, io.EOF
	}
	sr.lineNo += n
	sr.rows += n
	seg := &Table{schema: sr.schema, cols: make([]column, len(sr.cols))}
	for ci := range sr.cols {
		dict := sr.cols[ci].dict
		// Three-index slice: the segment reads the shared dictionary in
		// place, but any append (a consumer interning a new value) falls
		// off the capped capacity and copies, leaving the shared backing
		// untouched. The inverse index stays nil and is rebuilt lazily
		// and privately if the consumer ever needs it.
		seg.cols[ci].dict = dict[:len(dict):len(dict)]
		seg.cols[ci].codes = codes[ci]
	}
	// Retire oversized shared dictionaries. A near-unique column (an
	// identifying column, say) never repays sharing — its dictionary and
	// intern index would otherwise grow with the stream length, not the
	// chunk size, and every consumer doing per-distinct-value work over a
	// segment's dictionary view would pay for the whole stream's history.
	// Subsequent segments start that column from an empty dictionary; the
	// segment just built keeps its capped view of the retired backing,
	// and low-cardinality columns never hit the cap. The retired column
	// keeps its index table, emptied.
	for ci := range sr.cols {
		if len(sr.cols[ci].dict) > sr.dictCap {
			sr.cols[ci] = column{}
			sr.index[ci].reset()
		}
	}
	return seg, nil
}

// scan finds up to limit records, reading the source as needed. The
// bytes of the previous call's records are dropped first, so the
// buffer holds one piece plus at most one read block beyond it.
func (sr *SegmentReader) scan(limit int) []record {
	if sr.recLo > 0 {
		sr.buf = sr.buf[:copy(sr.buf, sr.buf[sr.recLo:])]
		sr.pos -= sr.recLo
		sr.recLo = 0
	}
	recs := sr.recs[:0]
	sr.tail = nil
	for len(recs) < limit {
		i := bytes.IndexByte(sr.buf[sr.pos:], '\n')
		if i < 0 {
			sr.quotes += bytes.Count(sr.buf[sr.pos:], quote)
			sr.pos = len(sr.buf)
			if sr.srcErr == nil && sr.quotes&1 != 0 && sr.pos-sr.recLo >= sr.guard {
				sr.checkRunaway()
			}
			if sr.srcErr == nil {
				sr.fill()
				continue
			}
			// The input is over: whatever follows the last record is one
			// more, unless it is an empty line at a clean end of input.
			if rest := sr.buf[sr.recLo:]; sr.srcErr != io.EOF || !blankLine(rest) {
				recs = append(recs, record{lo: sr.recLo, hi: len(sr.buf), line: sr.recLine})
				sr.tail = sr.srcErr
			}
			sr.recLo = len(sr.buf)
			break
		}
		nl := sr.pos + i
		sr.quotes += bytes.Count(sr.buf[sr.pos:nl], quote)
		sr.pos = nl + 1
		sr.line++
		if sr.quotes&1 != 0 {
			continue // a newline inside a quoted field
		}
		if !blankLine(sr.buf[sr.recLo:nl]) {
			recs = append(recs, record{lo: sr.recLo, hi: sr.pos, line: sr.recLine})
		}
		sr.recLo, sr.recLine, sr.quotes, sr.guard = sr.pos, sr.line+1, 0, guardMin
	}
	sr.recs = recs
	return recs
}

var quote = []byte{'"'}

// blankLine reports whether b, a line without its "\n", is one that
// encoding/csv skips.
func blankLine(b []byte) bool { return len(b) == 0 || len(b) == 1 && b[0] == '\r' }

// checkRunaway decodes (in a copy) the complete lines of a long record
// whose quote is still open. If they already hold a parse error, the
// input ends there for the reader, so that record is the last one and
// fails with that error, as encoding/csv's would without reading on;
// otherwise the next check waits until the record has doubled.
func (sr *SegmentReader) checkRunaway() {
	sr.guard *= 2
	last := bytes.LastIndexByte(sr.buf[sr.recLo:sr.pos], '\n')
	if last < 0 {
		return
	}
	hi := sr.recLo + last + 1
	scratch := append([]byte(nil), sr.buf[sr.recLo:hi]...)
	if _, err := parseRecord(scratch, errNeedMore, sr.recLine, nil); err == nil || err == errNeedMore {
		return
	}
	sr.srcErr = errNeedMore
	sr.buf = sr.buf[:hi]
	sr.pos = hi
}

// fill reads one block from the source into the buffer.
func (sr *SegmentReader) fill() {
	sr.buf = slices.Grow(sr.buf, readBlock)
	n, err := sr.src.Read(sr.buf[len(sr.buf) : len(sr.buf)+readBlock])
	sr.buf = sr.buf[:len(sr.buf)+n]
	switch {
	case err != nil:
		sr.srcErr = err
	case n > 0:
		sr.empties = 0
	default:
		if sr.empties++; sr.empties >= maxEmptyReads {
			sr.srcErr = io.ErrNoProgress
		}
	}
}

// decode splits every record into field spans, by row range over
// workers; line is the logical line of the first record. The error of
// the lowest failing row wins.
func (sr *SegmentReader) decode(workers, line int, recs []record) error {
	ncols := len(sr.cols)
	if need := len(recs) * ncols; cap(sr.cells) < need {
		sr.cells = make([]span, need)
	}
	cells := sr.cells[:len(recs)*ncols]
	return pool.ForEachChunkCtx(context.TODO(), workers, len(recs), func(_, lo, hi int) error {
		ends := make([]int, 0, ncols)
		for r := lo; r < hi; r++ {
			rec := recs[r]
			var end error
			if r == len(recs)-1 {
				end = sr.tail
			}
			if end == nil && sr.splitPlain(rec, cells[r*ncols:(r+1)*ncols]) {
				continue
			}
			var err error
			ends, err = parseRecord(sr.buf[rec.lo:rec.hi:rec.hi], end, rec.line, ends[:0])
			if err == nil && len(ends) != ncols {
				err = &csv.ParseError{StartLine: rec.line, Line: rec.line, Column: 1, Err: csv.ErrFieldCount}
			}
			if err != nil {
				return fmt.Errorf("relation: line %d: %w", line+r, err)
			}
			prev := rec.lo
			for i, e := range ends {
				cells[r*ncols+sr.perm[i]] = span{prev, rec.lo + e}
				prev = rec.lo + e
			}
		}
		return nil
	})
}

// splitPlain is parseRecord's fast path for a record closed by its own
// newline whose fields need no unescaping, the common case: each field
// is either unquoted and quote-free, or quoted with no "" and no "\r"
// inside, so its value is a run of the buffer and nothing is copied (a
// "\r" before the record's newline is dropped, as encoding/csv does).
// It reports false, after writing only spans parseRecord will
// overwrite, for any other record, well-formed or not, and for a
// record with the wrong number of fields, leaving parseRecord to
// decide.
func (sr *SegmentReader) splitPlain(rec record, cells []span) bool {
	buf := sr.buf
	p, end := rec.lo, rec.hi-1 // buf[end] is the newline
	if end > p && buf[end-1] == '\r' {
		end--
	}
	last := len(sr.perm) - 1
	for i, ci := range sr.perm {
		var lo, hi int
		if p < end && buf[p] == '"' {
			j := bytes.IndexByte(buf[p+1:end], '"')
			if j < 0 {
				return false
			}
			lo, hi = p+1, p+1+j
			if bytes.IndexByte(buf[lo:hi], '\r') >= 0 {
				return false
			}
			p = hi + 1
		} else {
			j := bytes.IndexByte(buf[p:end], ',')
			if j < 0 {
				j = end - p
			}
			lo, hi = p, p+j
			if bytes.IndexByte(buf[lo:hi], '"') >= 0 {
				return false
			}
			p = hi
		}
		// p is at the field's separator: a comma, or the record's end
		// after the last field.
		if i == last {
			if p != end {
				return false
			}
		} else {
			if p == end || buf[p] != ',' {
				return false
			}
			p++
		}
		cells[ci] = span{lo, hi}
	}
	return true
}

// intern appends the codes of n decoded rows to codes, one goroutine
// per column walking the rows in order. A value new to an identifying
// column becomes a substring of one string holding the column's bytes
// for all n rows, instead of an allocation of its own.
func (sr *SegmentReader) intern(workers, n int, codes [][]uint32) {
	ncols := len(sr.cols)
	cells := sr.cells
	_ = pool.ForEachCtx(context.TODO(), workers, ncols, func(ci int) error {
		c, x := &sr.cols[ci], &sr.index[ci]
		var arena string
		if sr.schema.Column(ci).Kind == Identifying {
			size := 0
			for r := 0; r < n; r++ {
				size += cells[r*ncols+ci].hi - cells[r*ncols+ci].lo
			}
			var sb strings.Builder
			sb.Grow(size)
			for r := 0; r < n; r++ {
				s := cells[r*ncols+ci]
				sb.Write(sr.buf[s.lo:s.hi])
			}
			arena = sb.String()
		}
		out, off := codes[ci], 0
		for r := 0; r < n; r++ {
			s := cells[r*ncols+ci]
			b := sr.buf[s.lo:s.hi]
			code, slot, ok := x.find(c.dict, b)
			if !ok {
				var v string
				if arena != "" {
					v = arena[off : off+len(b)]
				} else {
					v = string(b)
				}
				code = uint32(len(c.dict))
				c.dict = append(c.dict, v)
				x.add(c.dict, slot)
			}
			off += len(b)
			out = append(out, code)
		}
		codes[ci] = out
		return nil
	})
}

// codeIndex is the reader's value → code index over one column's shared
// dictionary, in place of the column's map: open addressing over codes
// keyed by the value's hash, so a lookup takes a field's bytes where
// they lie in the buffer and an insert allocates nothing until the
// table doubles.
type codeIndex struct {
	seed  maphash.Seed
	slots []uint32 // code+1, or 0 for an empty slot; a power of two long
	n     int
}

// newCodeIndex sizes the table for hint values without a doubling.
func newCodeIndex(hint int) codeIndex {
	size := 64
	for size < 2*hint {
		size *= 2
	}
	return codeIndex{seed: maphash.MakeSeed(), slots: make([]uint32, size)}
}

// find returns the code of b in dict or, when b is absent, the slot
// where add records it.
func (x *codeIndex) find(dict []string, b []byte) (code uint32, slot int, ok bool) {
	mask := len(x.slots) - 1
	for i := int(maphash.Bytes(x.seed, b)) & mask; ; i = (i + 1) & mask {
		c := x.slots[i]
		if c == 0 {
			return 0, i, false
		}
		if dict[c-1] == string(b) {
			return c - 1, 0, true
		}
	}
}

// add records the last entry of dict, just appended for a value find
// missed, at the slot find returned. The table stays at most half full.
func (x *codeIndex) add(dict []string, slot int) {
	x.n++
	if 2*x.n <= len(x.slots) {
		x.slots[slot] = uint32(len(dict))
		return
	}
	x.slots = make([]uint32, 2*len(x.slots))
	mask := len(x.slots) - 1
	for code, v := range dict {
		i := int(maphash.String(x.seed, v)) & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = uint32(code) + 1
	}
}

// reset empties the index for a retired dictionary, keeping its table.
func (x *codeIndex) reset() {
	clear(x.slots)
	x.n = 0
}

// Rows returns the number of data rows ingested so far.
func (sr *SegmentReader) Rows() int { return sr.rows }

// Schema returns the schema segments are yielded over.
func (sr *SegmentReader) Schema() *Schema { return sr.schema }

// OneSegment yields a whole table as a single segment, even when it has
// no rows. Unlike Table.Segments it does not re-encode the table: it is
// the source the in-memory pipeline forms run their segment loops over.
type OneSegment struct {
	Table *Table
	done  bool
}

// Schema returns the table's schema.
func (s *OneSegment) Schema() *Schema { return s.Table.schema }

// Next returns the table on the first call and (nil, io.EOF) after.
func (s *OneSegment) Next() (*Table, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	return s.Table, nil
}

// TableSegments streams an in-memory table as bounded segments — the
// in-memory twin of SegmentReader for callers that already hold a Table
// but want the bounded-memory code path, and for tests comparing the
// two. Segments are compact re-encodings in row order: each carries
// only the dictionary entries its own rows use, so a segment's
// footprint is proportional to its row count even when the source
// table's dictionaries are huge (a million-row identifying column would
// otherwise ride along with every Slice-style segment).
type TableSegments struct {
	t     *Table
	chunk int
	lo    int
}

// Segments returns a streaming view of t yielding at most chunk rows
// per segment (DefaultChunk when chunk <= 0). The table must not be
// mutated while the view is drained.
func (t *Table) Segments(chunk int) *TableSegments {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &TableSegments{t: t, chunk: chunk}
}

// Schema returns the schema segments are yielded over.
func (ts *TableSegments) Schema() *Schema { return ts.t.schema }

// Next returns the next segment, or (nil, io.EOF) when the table is
// exhausted.
func (ts *TableSegments) Next() (*Table, error) {
	n := ts.t.NumRows()
	if ts.lo >= n {
		return nil, io.EOF
	}
	hi := min(ts.lo+ts.chunk, n)
	seg := compactSlice(ts.t, ts.lo, hi)
	ts.lo = hi
	return seg, nil
}

// compactSlice re-encodes rows [lo,hi) of t with segment-local
// dictionaries holding only the values those rows use. Value strings
// share backing with the source dictionaries; the lazily-built
// value→code index stays unmaterialized until a consumer interns.
func compactSlice(t *Table, lo, hi int) *Table {
	out := &Table{schema: t.schema, cols: make([]column, len(t.cols))}
	for ci := range t.cols {
		src := &t.cols[ci]
		dst := &out.cols[ci]
		remap := make(map[uint32]uint32, min(hi-lo, len(src.dict)))
		dst.codes = make([]uint32, hi-lo)
		for i, code := range src.codes[lo:hi] {
			nc, ok := remap[code]
			if !ok {
				nc = uint32(len(dst.dict))
				dst.dict = append(dst.dict, src.dict[code])
				remap[code] = nc
			}
			dst.codes[i] = nc
		}
	}
	return out
}
