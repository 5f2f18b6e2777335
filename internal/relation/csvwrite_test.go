package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// oracleWriteCSV is the record-level writer SegmentWriter replaced,
// kept as its differential oracle: every row decoded to strings and fed
// to encoding/csv's Writer.
func oracleWriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	record := make([]string, t.Schema().NumColumns())
	for i := 0; i < t.NumRows(); i++ {
		for ci := range record {
			record[ci] = t.CellAt(i, ci)
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeSegments streams src through one SegmentWriter.
func writeSegments(w io.Writer, schema *Schema, next func() (*Table, error)) error {
	sw := NewSegmentWriter(w, schema)
	for {
		seg, err := next()
		if err == io.EOF {
			return sw.Flush()
		}
		if err != nil {
			return err
		}
		if err := sw.WriteSegment(seg); err != nil {
			return err
		}
	}
}

// cellsTable lays cells out row-major over schema, padding the last row
// with empty cells.
func cellsTable(schema *Schema, cells []string) *Table {
	tbl := NewTable(schema)
	n := schema.NumColumns()
	for lo := 0; lo < len(cells); lo += n {
		row := make([]string, n)
		copy(row, cells[lo:min(lo+n, len(cells))])
		if err := tbl.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return tbl
}

// writerMismatch writes tbl whole and in segments of every chunk size
// and reports the first output that differs from the oracle's bytes.
func writerMismatch(tbl *Table, chunks ...int) string {
	var want bytes.Buffer
	if err := oracleWriteCSV(&want, tbl); err != nil {
		return fmt.Sprintf("oracle: %v", err)
	}
	var whole bytes.Buffer
	if err := tbl.WriteCSV(&whole); err != nil {
		return fmt.Sprintf("WriteCSV: %v", err)
	}
	if !bytes.Equal(whole.Bytes(), want.Bytes()) {
		return fmt.Sprintf("WriteCSV:\n%q\nencoding/csv:\n%q", whole.String(), want.String())
	}
	for _, chunk := range chunks {
		var got bytes.Buffer
		if err := writeSegments(&got, tbl.Schema(), tbl.Segments(chunk).Next); err != nil {
			return fmt.Sprintf("chunk %d: %v", chunk, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Sprintf("chunk %d:\n%q\nencoding/csv:\n%q", chunk, got.String(), want.String())
		}
	}
	return ""
}

// FuzzSegmentWriterMatchesCSV checks the byte-level writer against
// encoding/csv's Writer: the cells are the input split at '\x1f', laid
// out row-major over a four-column schema, written whole by WriteCSV
// and in segments of a swept chunk size by one SegmentWriter.
func FuzzSegmentWriterMatchesCSV(f *testing.F) {
	for _, seed := range []string{
		"s1\x1f34\x1fNurse\x1fplain",
		"a\"b\x1f\"\x1f\"\"\x1fend\"",
		"a,b\x1f,\x1f,,\x1fx,",
		"cr\rin\x1f\r\x1flf\nin\x1f\n",
		"crlf\r\n\x1f\r\n\x1f\"\r\n\"\x1fx",
		" lead\x1f\tlead\x1f\u00a0lead\x1ftrail ",
		"\\.\x1f\\.\\.\x1f.\\\x1f\\",
		"\x1f\x1f\x1f",
		"\xff\xfe\x1f\xc3\x1f\xe2\x80\x1f \xff",
		"\u2028line\x1f\u3000ideo\x1f\v\x1f\f",
		"",
	} {
		for _, chunk := range []uint8{1, 2, 3} {
			f.Add(seed, chunk)
		}
	}
	schema := segSchema()
	f.Fuzz(func(t *testing.T, input string, chunk uint8) {
		tbl := cellsTable(schema, strings.Split(input, "\x1f"))
		if msg := writerMismatch(tbl, int(chunk)+1, 1, 2, 5); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestSegmentWriterWholeTableAcrossBatches writes a table of several
// DefaultChunk batches whose cells repeat across segments and need every
// kind of quoting: every segmentation, and WriteCSV of the whole table,
// must match encoding/csv's bytes.
func TestSegmentWriterWholeTableAcrossBatches(t *testing.T) {
	values := []string{"plain", "a,b", `q"q`, "l\nf", "c\rr", " sp", "\ttab", "\u00a0nb", `\.`, "", "\xff"}
	rows := 2*DefaultChunk + 17
	cells := make([]string, 0, rows*4)
	for i := 0; i < rows; i++ {
		cells = append(cells, fmt.Sprintf("id%d", i), values[i%len(values)], values[(i/3)%len(values)], values[(i*7)%len(values)])
	}
	tbl := cellsTable(segSchema(), cells)
	if msg := writerMismatch(tbl, 1000, DefaultChunk, DefaultChunk+1, rows); msg != "" {
		t.Fatal(msg[:min(len(msg), 500)])
	}
}

// TestSegmentWriterQuotedHeader checks that header names take the same
// quoting rules as cells.
func TestSegmentWriterQuotedHeader(t *testing.T) {
	schema := MustSchema(
		Column{Name: "id", Kind: Identifying},
		Column{Name: "a,b", Kind: QuasiNumeric},
		Column{Name: " lead", Kind: Other},
		Column{Name: `say "hi"`, Kind: Other},
	)
	tbl := cellsTable(schema, []string{"1", "2", "3", "4"})
	if msg := writerMismatch(tbl, 1); msg != "" {
		t.Fatal(msg)
	}
	if msg := writerMismatch(NewTable(schema)); msg != "" {
		t.Fatal(msg)
	}
}

// TestSegmentWriterWriteErrors checks that a failing or short
// underlying writer surfaces from WriteSegment or Flush.
func TestSegmentWriterWriteErrors(t *testing.T) {
	tbl := cellsTable(segSchema(), []string{"s1", "34", "Nurse", "a"})
	boom := errors.New("boom")
	if err := tbl.WriteCSV(shortWriter{}); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short writer: err = %v, want io.ErrShortWrite", err)
	}
	if err := tbl.WriteCSV(failWriter{boom}); !errors.Is(err, boom) {
		t.Fatalf("failing writer: err = %v, want %v", err, boom)
	}
	if err := NewSegmentWriter(failWriter{boom}, segSchema()).Flush(); !errors.Is(err, boom) {
		t.Fatalf("failing writer on an empty stream: err = %v, want %v", err, boom)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// shortWriter accepts half of every write without an error.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }
