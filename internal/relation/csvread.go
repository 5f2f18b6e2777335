package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
)

// This file is the byte-level CSV record decoder behind SegmentReader
// and ReadCSV. It follows encoding/csv's Reader under its default
// settings (comma separator, no comment character, strict quotes) rule
// for rule: the same records, the same "\r\n" → "\n" folding, the same
// skipping of empty lines, and the same *csv.ParseError values with the
// same line and column numbers.

// errNeedMore ends a record's bytes when the source has more to give
// but it has not been read yet. Parsing such a prefix either finds a
// parse error within it or reports errNeedMore.
var errNeedMore = errors.New("relation: record continues past the bytes read")

// lineReader hands out the physical lines of one record's raw bytes the
// way encoding/csv's readLine does: each line keeps its "\n", a final
// "\r\n" folds to "\n" in place, and a line cut short by io.EOF drops
// one trailing "\r".
type lineReader struct {
	data    []byte // unread bytes
	end     error  // what the source reported after data
	numLine int    // physical line number of the last line handed out
}

func (lr *lineReader) readLine() ([]byte, error) {
	var line []byte
	var err error
	if i := bytes.IndexByte(lr.data, '\n'); i >= 0 {
		line, lr.data = lr.data[:i+1], lr.data[i+1:]
	} else {
		line, lr.data, err = lr.data, nil, lr.end
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	lr.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// parseRecord decodes the record at the front of data, whose first line
// is physical line number line. end is what the source reported after
// data: nil when data finishes with the record's own newline, io.EOF,
// errNeedMore, or the source's read error. The unescaped fields are
// written back over data from its start (decoding never writes ahead of
// what it has read), and the end offset of each field is appended to
// ends. A malformed record fails with encoding/csv's *csv.ParseError; a
// record cut short by a read error fails with that error. The field
// count is the caller's check.
func parseRecord(data []byte, end error, line int, ends []int) ([]int, error) {
	if end == nil {
		end = io.EOF
	}
	lr := lineReader{data: data, end: end, numLine: line - 1}

	// Read the first line, skipping empty ones.
	var cur []byte
	var errRead error
	for errRead == nil {
		cur, errRead = lr.readLine()
		if errRead == nil && len(cur) == lengthNL(cur) {
			continue
		}
		break
	}
	if errRead == io.EOF {
		return ends, errRead
	}

	rec := data[:0] // the unescaped fields, one after another
	recLine := lr.numLine
	posLine, col := lr.numLine, 1
	var err error
parseField:
	for {
		if len(cur) == 0 || cur[0] != '"' {
			// Non-quoted field.
			i := bytes.IndexByte(cur, ',')
			field := cur
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: lr.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			rec = append(rec, field...)
			ends = append(ends, len(rec))
			if i >= 0 {
				cur = cur[i+1:]
				col += i + 1
				continue parseField
			}
			break parseField
		}
		// Quoted field.
		cur = cur[1:]
		col++
		for {
			i := bytes.IndexByte(cur, '"')
			switch {
			case i >= 0:
				// Hit the next quote.
				rec = append(rec, cur[:i]...)
				cur = cur[i+1:]
				col += i + 1
				switch {
				case len(cur) > 0 && cur[0] == '"':
					// `""`: an escaped quote.
					rec = append(rec, '"')
					cur = cur[1:]
					col++
				case len(cur) > 0 && cur[0] == ',':
					// `",`: end of field.
					cur = cur[1:]
					col++
					ends = append(ends, len(rec))
					continue parseField
				case lengthNL(cur) == len(cur):
					// `"\n`: end of line.
					ends = append(ends, len(rec))
					break parseField
				default:
					// `"*`: a quote followed by anything else.
					err = &csv.ParseError{StartLine: recLine, Line: lr.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(cur) > 0:
				// Hit the end of the line: the field continues on the next.
				rec = append(rec, cur...)
				if errRead != nil {
					break parseField
				}
				col += len(cur)
				cur, errRead = lr.readLine()
				if len(cur) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// Abrupt end of input.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				ends = append(ends, len(rec))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	return ends, err
}
