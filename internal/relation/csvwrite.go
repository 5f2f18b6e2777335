package relation

import (
	"errors"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file is the byte-level CSV encoder behind SegmentWriter and
// WriteCSV. It writes exactly what encoding/csv's Writer writes under
// its default settings (comma separator, "\n" record ends): a field is
// quoted when it holds a comma, a quote, CR or LF, when it is the lone
// `\.`, or when its first rune is white space (unicode.IsSpace: tab and
// NBSP as well as the space); inside quotes a quote is doubled and CR
// and LF are copied as they are; empty fields are never quoted.
//
// Every cell is a column dictionary entry, so the quoting rule runs once
// per entry a segment uses, not once per cell: rows are appends of the
// dictionary strings themselves, one bounded batch at a time.

// Quoting decisions, one per dictionary entry of the segment being
// written.
const (
	undecided uint8 = iota
	bare
	quoted
)

// SegmentWriter emits a sequence of table segments as one CSV stream:
// the header once, then each segment's rows in arrival order. The
// concatenated output is byte-identical to WriteCSV of the
// corresponding whole table, and to encoding/csv's Writer fed the same
// records. A SegmentWriter is not safe for concurrent use.
type SegmentWriter struct {
	w           io.Writer
	names       []string
	wroteHeader bool
	// buf holds the pending bytes: the header until the first batch,
	// then at most DefaultChunk encoded rows; it is reused per batch.
	buf []byte
	// quote[ci][code] is the quoting decision for dictionary entry code
	// of column ci in the segment being written.
	quote [][]uint8
}

// NewSegmentWriter prepares a segment CSV writer for tables over
// schema.
func NewSegmentWriter(w io.Writer, schema *Schema) *SegmentWriter {
	return &SegmentWriter{
		w:     w,
		names: schema.Names(),
		quote: make([][]uint8, schema.NumColumns()),
	}
}

// header queues the header row exactly once, ahead of the first batch.
func (sw *SegmentWriter) header() {
	if sw.wroteHeader {
		return
	}
	sw.wroteHeader = true
	for ci, name := range sw.names {
		if ci > 0 {
			sw.buf = append(sw.buf, ',')
		}
		sw.buf = appendField(sw.buf, name, needsQuotes(name))
	}
	sw.buf = append(sw.buf, '\n')
}

// WriteSegment appends every row of t to the stream, writing one batch
// of at most DefaultChunk encoded rows at a time.
func (sw *SegmentWriter) WriteSegment(t *Table) error {
	if len(t.cols) != len(sw.names) {
		return errors.New("relation: segment column count mismatch")
	}
	sw.header()
	for ci := range t.cols {
		n := len(t.cols[ci].dict)
		q := sw.quote[ci]
		if cap(q) < n {
			q = make([]uint8, n)
		} else {
			q = q[:n]
			clear(q)
		}
		sw.quote[ci] = q
	}
	return t.ForEachRowChunk(DefaultChunk, func(lo, hi int) error {
		sw.appendRows(t, lo, hi)
		return sw.emit()
	})
}

// appendRows encodes rows [lo,hi) of t into the buffer.
func (sw *SegmentWriter) appendRows(t *Table, lo, hi int) {
	buf := sw.buf
	for i := lo; i < hi; i++ {
		for ci := range t.cols {
			if ci > 0 {
				buf = append(buf, ',')
			}
			c, q := &t.cols[ci], sw.quote[ci]
			code := c.codes[i]
			field := c.dict[code]
			if q[code] == undecided {
				q[code] = bare
				if needsQuotes(field) {
					q[code] = quoted
				}
			}
			buf = appendField(buf, field, q[code] == quoted)
		}
		buf = append(buf, '\n')
	}
	sw.buf = buf
}

// Flush completes the stream: the header is emitted even if no segment
// was written (matching WriteCSV on an empty table) and pending bytes
// reach the underlying writer.
func (sw *SegmentWriter) Flush() error {
	sw.header()
	return sw.emit()
}

// emit writes the pending bytes and empties the buffer.
func (sw *SegmentWriter) emit() error {
	if len(sw.buf) == 0 {
		return nil
	}
	n, err := sw.w.Write(sw.buf)
	if err == nil && n < len(sw.buf) {
		err = io.ErrShortWrite
	}
	sw.buf = sw.buf[:0]
	return err
}

// WriteCSV writes the table (header + rows) to w: the segment writer
// over the table as one segment, so the table is never materialized as
// [][]string and the buffered output stays bounded by the row batch.
func (t *Table) WriteCSV(w io.Writer) error {
	sw := NewSegmentWriter(w, t.schema)
	if err := sw.WriteSegment(t); err != nil {
		return err
	}
	return sw.Flush()
}

// needsQuotes is encoding/csv's fieldNeedsQuotes for the comma
// separator.
func needsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendField appends field, quoted with its quotes doubled when quote
// is set.
func appendField(dst []byte, field string, quote bool) []byte {
	if !quote {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		dst = append(dst, field[:i+1]...)
		dst = append(dst, '"')
		field = field[i+1:]
	}
	dst = append(dst, field...)
	return append(dst, '"')
}
