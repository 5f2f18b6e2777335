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

func segSchema() *Schema {
	return MustSchema(
		Column{Name: "ssn", Kind: Identifying},
		Column{Name: "age", Kind: QuasiNumeric},
		Column{Name: "doctor", Kind: QuasiCategorical},
		Column{Name: "note", Kind: Other},
	)
}

// collectSegments drains a segment reader into a fresh table, returning
// the reassembled table and the segment row counts.
func collectSegments(t *testing.T, sr *SegmentReader) (*Table, []int) {
	t.Helper()
	out := NewTable(sr.schema)
	var sizes []int
	for {
		seg, err := sr.Next()
		if err == io.EOF {
			return out, sizes
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		sizes = append(sizes, seg.NumRows())
		if err := out.AppendTable(seg); err != nil {
			t.Fatalf("AppendTable: %v", err)
		}
	}
}

func tablesEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		for ci := 0; ci < want.Schema().NumColumns(); ci++ {
			if g, w := got.CellAt(i, ci), want.CellAt(i, ci); g != w {
				t.Fatalf("row %d col %d: %q, want %q", i, ci, g, w)
			}
		}
	}
}

func TestSegmentReaderMatchesReadCSV(t *testing.T) {
	const input = "doctor,ssn,note,age\n" + // permuted header
		"Nurse,s1,a,34\n" +
		"\"Sur,geon\",s2,\"multi\nline\",67\n" +
		"Nurse,s3,\"qu\"\"ote\",34\n" +
		"Clerk,s4,后藤さん,9\n" +
		"Nurse,s5,,34\n"
	want, err := ReadCSV(strings.NewReader(input), segSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 3, 5, 100, 0} {
		sr, err := NewSegmentReader(strings.NewReader(input), segSchema(), chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got, sizes := collectSegments(t, sr)
		tablesEqual(t, got, want)
		if sr.Rows() != want.NumRows() {
			t.Fatalf("chunk %d: Rows() = %d, want %d", chunk, sr.Rows(), want.NumRows())
		}
		for _, n := range sizes {
			limit := chunk
			if limit <= 0 {
				limit = DefaultChunk
			}
			if n > limit {
				t.Fatalf("chunk %d: segment of %d rows", chunk, n)
			}
		}
	}
}

// TestSegmentReaderSharedDicts pins the cross-segment dictionary
// contract: a value seen in two segments carries the same code in both,
// and a consumer interning into one segment cannot disturb the shared
// backing other segments read.
func TestSegmentReaderSharedDicts(t *testing.T) {
	const input = "ssn,age,doctor,note\n" +
		"s1,34,Nurse,a\n" +
		"s2,67,Surgeon,b\n" +
		"s3,34,Nurse,c\n" +
		"s4,9,Clerk,d\n"
	sr, err := NewSegmentReader(strings.NewReader(input), segSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	seg1, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	ageIdx, _ := segSchema().Index("age")
	code34 := seg1.CodeAt(0, ageIdx)

	// Interning a new value into seg1 must copy, not grow the shared dict.
	seg1.SetCellAt(1, ageIdx, "999")

	seg2, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := seg2.CodeAt(0, ageIdx); got != code34 {
		t.Fatalf("age code for repeated value = %d in segment 2, want %d", got, code34)
	}
	for _, v := range seg2.DictValues(ageIdx) {
		if v == "999" {
			t.Fatal("consumer-interned value leaked into the shared dictionary")
		}
	}
	// seg1 still reads correctly after the reader interned more values.
	if got := seg1.CellAt(0, ageIdx); got != "34" {
		t.Fatalf("segment 1 cell = %q after later ingest, want \"34\"", got)
	}
	if got := seg1.CellAt(1, ageIdx); got != "999" {
		t.Fatalf("segment 1 interned cell = %q, want \"999\"", got)
	}
}

func TestSegmentWriterMatchesWriteCSV(t *testing.T) {
	const input = "ssn,age,doctor,note\n" +
		"s1,34,Nurse,\"a\nb\"\n" +
		"s2,67,\"Sur,geon\",b\n" +
		"s3,34,Nurse,c\n" +
		"s4,9,Clerk,d\n" +
		"s5,67,Nurse,e\n"
	tbl, err := ReadCSV(strings.NewReader(input), segSchema())
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := tbl.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	for _, split := range [][]int{{5}, {1, 4}, {2, 2, 1}, {3, 0, 2}} {
		var streamed bytes.Buffer
		sw := NewSegmentWriter(&streamed, tbl.Schema())
		lo := 0
		for _, n := range split {
			seg, err := tbl.Slice(lo, lo+n)
			if err != nil {
				t.Fatal(err)
			}
			lo += n
			if err := sw.WriteSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
			t.Fatalf("split %v: streamed CSV differs from WriteCSV", split)
		}
	}
}

func TestSegmentWriterEmptyStream(t *testing.T) {
	empty := NewTable(segSchema())
	var whole bytes.Buffer
	if err := empty.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	sw := NewSegmentWriter(&streamed, segSchema())
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
		t.Fatalf("empty stream = %q, want %q", streamed.String(), whole.String())
	}
}

func TestSegmentReaderErrors(t *testing.T) {
	if _, err := NewSegmentReader(strings.NewReader("ssn,ssn,doctor,note\n"), segSchema(), 2); err == nil {
		t.Fatal("duplicate header column accepted")
	}
	if _, err := NewSegmentReader(strings.NewReader("ssn,age,doctor,bogus\n"), segSchema(), 2); err == nil {
		t.Fatal("unknown header column accepted")
	}
	if _, err := NewSegmentReader(strings.NewReader(""), segSchema(), 2); err == nil {
		t.Fatal("empty input accepted")
	}

	// A ragged record mid-stream fails with ReadCSV's line numbering and
	// the failure is sticky.
	const bad = "ssn,age,doctor,note\ns1,34,Nurse,a\nonly,two\n"
	sr, err := NewSegmentReader(strings.NewReader(bad), segSchema(), 10)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("ragged record error = %v, want line 3", err)
	}
	if _, err2 := sr.Next(); !errors.Is(err2, err) && err2 == nil {
		t.Fatal("error is not sticky")
	}
}

// FuzzSegmentIngest asserts the streaming contract on arbitrary
// documents: whenever ReadCSV accepts an input, segmented ingest at any
// chunk size must accept it too and reassemble to the identical table —
// records split across segment boundaries (quoted newlines, multi-byte
// runes, trailing partial rows) included.
func FuzzSegmentIngest(f *testing.F) {
	f.Add("ssn,age,doctor,note\ns1,34,Nurse,a\ns2,67,Surgeon,b\ns3,9,Clerk,c\n", 2)
	f.Add("doctor,ssn,note,age\nNurse,s1,a,34\n", 1)
	f.Add("ssn,age,doctor,note\n\"s,1\",\"3\n4\",\"Nu\"\"rse\",\"\"\n\"s\n2\",5,N,x\n", 1)
	f.Add("ssn,age,doctor,note\nс1,34,Ärztin,後藤\nс2,34,Ärztin,後藤\n", 1)
	f.Add("ssn,age,doctor,note\r\ns1,34,Nurse,a\r\ns2,5,N,b", 3)
	f.Add("ssn,age,doctor,note\ns1,,,\n,,,\n", 7)
	f.Add("", 4)
	f.Fuzz(func(t *testing.T, input string, chunk int) {
		if chunk < 0 {
			chunk = -chunk
		}
		chunk %= 6 // exercise tiny segments and the <=0 default path
		schema := segSchema()
		want, wantErr := ReadCSV(strings.NewReader(input), schema)

		sr, err := NewSegmentReader(strings.NewReader(input), schema, chunk)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("segment reader rejected input ReadCSV accepts: %v", err)
			}
			return
		}
		got := NewTable(schema)
		var segErr error
		for {
			seg, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				segErr = err
				break
			}
			if err := got.AppendTable(seg); err != nil {
				t.Fatal(err)
			}
		}
		if wantErr != nil {
			if segErr == nil {
				t.Fatalf("segmented ingest accepted input ReadCSV rejects: %v", wantErr)
			}
			return
		}
		if segErr != nil {
			t.Fatalf("segmented ingest failed on accepted input: %v", segErr)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumRows(); i++ {
			for ci := 0; ci < schema.NumColumns(); ci++ {
				if g, w := got.CellAt(i, ci), want.CellAt(i, ci); g != w {
					t.Fatalf("row %d col %d: %q, want %q", i, ci, g, w)
				}
			}
		}
	})
}

// TestSegmentReaderErrorText pins the full text of the malformed-record
// errors the server's 400s expose: ReadCSV's "relation: line N" prefix,
// where N counts records, wrapping encoding/csv's *csv.ParseError,
// whose lines are physical.
func TestSegmentReaderErrorText(t *testing.T) {
	const h = "ssn,age,doctor,note\n"
	cases := []struct {
		name, input string
		line        int
		pe          csv.ParseError
		want        string
	}{
		{
			"ragged record", h + "s1,34,Nurse,a\nonly,two\n", 3,
			csv.ParseError{StartLine: 3, Line: 3, Column: 1, Err: csv.ErrFieldCount},
			"relation: line 3: record on line 3: wrong number of fields",
		},
		{
			"bare quote", h + "s1,34,Nu\"rse,a\n", 2,
			csv.ParseError{StartLine: 2, Line: 2, Column: 9, Err: csv.ErrBareQuote},
			"relation: line 2: parse error on line 2, column 9: bare \" in non-quoted-field",
		},
		{
			"unterminated quote", h + "s1,34,Nurse,\"abc\nde\n", 2,
			csv.ParseError{StartLine: 2, Line: 3, Column: 4, Err: csv.ErrQuote},
			"relation: line 2: record on line 2; parse error on line 3, column 4: extraneous or missing \" in quoted-field",
		},
		{
			"quote then junk", h + "s1,34,\"Nurse\"x,a\n", 2,
			csv.ParseError{StartLine: 2, Line: 2, Column: 13, Err: csv.ErrQuote},
			"relation: line 2: parse error on line 2, column 13: extraneous or missing \" in quoted-field",
		},
		{
			"after a multi-line field", h + "s1,34,Nurse,\"a\nb\"\ns2,34,Nu\"rse,c\n", 3,
			csv.ParseError{StartLine: 4, Line: 4, Column: 9, Err: csv.ErrBareQuote},
			"relation: line 3: parse error on line 4, column 9: bare \" in non-quoted-field",
		},
		{
			"multi-line field then junk", h + "s1,34,Nurse,\"a\nb\"\ns2,34,Nurse,\"c\nd\"x\n", 3,
			csv.ParseError{StartLine: 4, Line: 5, Column: 2, Err: csv.ErrQuote},
			"relation: line 3: record on line 4; parse error on line 5, column 2: extraneous or missing \" in quoted-field",
		},
		{
			"ragged after blank lines", h + "s1,34,Nurse,\"a\nb\"\n\n\ns2,34\n", 3,
			csv.ParseError{StartLine: 6, Line: 6, Column: 1, Err: csv.ErrFieldCount},
			"relation: line 3: record on line 6: wrong number of fields",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if built := fmt.Sprintf("relation: line %d: %v", tc.line, &tc.pe); built != tc.want {
				t.Fatalf("built text %q, want %q", built, tc.want)
			}
			sr, err := NewSegmentReader(strings.NewReader(tc.input), segSchema(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				_, err = sr.Next()
			}
			_, readErr := ReadCSV(strings.NewReader(tc.input), segSchema())
			for _, got := range []error{err, readErr} {
				if got == nil || got.Error() != tc.want {
					t.Fatalf("error %v, want %q", got, tc.want)
				}
				var pe *csv.ParseError
				if !errors.As(got, &pe) || *pe != tc.pe {
					t.Fatalf("parse error %+v, want %+v", pe, tc.pe)
				}
			}
		})
	}

	_, err := NewSegmentReader(strings.NewReader("ssn,age,\"doc\n"), segSchema(), 1)
	const want = "relation: reading header: parse error on line 1, column 14: extraneous or missing \" in quoted-field"
	if err == nil || err.Error() != want {
		t.Fatalf("header error %v, want %q", err, want)
	}
}

// countingSource counts the bytes a reader hands out and, when failAt
// is non-negative, fails with errSource once failAt bytes are out.
type countingSource struct {
	r      io.Reader
	n      int
	failAt int
}

var errSource = errors.New("source failed")

func (c *countingSource) Read(p []byte) (int, error) {
	if c.failAt >= 0 {
		if c.n >= c.failAt {
			return 0, errSource
		}
		p = p[:min(len(p), c.failAt-c.n)]
	}
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestSegmentReaderReadAhead pins the read-ahead contract a caller
// metering the source per segment relies on: after each Next the
// reader has consumed at most one 4 KiB block beyond the end of the
// last record it yielded. A source that fails mid-stream fails the
// same Next the record-level oracle fails, with an error that wraps
// the source's and stays sticky.
func TestSegmentReaderReadAhead(t *testing.T) {
	var b strings.Builder
	b.WriteString("ssn,age,doctor,note\r\n")
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&b, "s%d,%d,Nurse,", i, i%90)
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "\"multi\nline %d\"\n", i)
		case 1:
			b.WriteString(strings.Repeat("wide ", i%60) + "\r\n")
		case 2:
			b.WriteString("\n\n")
		default:
			b.WriteString("\"q\"\"uote\"\n")
		}
	}
	input := b.String()

	for _, chunk := range []int{1, 7, 100, 0} {
		// The oracle's InputOffset marks where each record ends.
		oracle := csv.NewReader(strings.NewReader(input))
		if _, err := oracle.Read(); err != nil {
			t.Fatal(err)
		}
		src := &countingSource{r: strings.NewReader(input), failAt: -1}
		sr, err := NewSegmentReader(src, segSchema(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		if ahead := int64(src.n) - oracle.InputOffset(); ahead > 4096 {
			t.Fatalf("chunk %d: header read %d bytes ahead", chunk, ahead)
		}
		for {
			seg, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < seg.NumRows(); i++ {
				if _, err := oracle.Read(); err != nil {
					t.Fatal(err)
				}
			}
			if ahead := int64(src.n) - oracle.InputOffset(); ahead < 0 || ahead > 4096 {
				t.Fatalf("chunk %d: %d bytes read past the last record", chunk, ahead)
			}
		}
	}

	for _, chunk := range []int{1, 7, 0} {
		for failAt := 0; failAt < len(input); failAt += 389 {
			src := &countingSource{r: strings.NewReader(input), failAt: failAt}
			want, wantErr := newCSVSegments(&countingSource{r: strings.NewReader(input), failAt: failAt}, segSchema(), chunk)
			sr, err := NewSegmentReader(src, segSchema(), chunk)
			if errText(err) != errText(wantErr) {
				t.Fatalf("fail at %d: header error %v, want %v", failAt, err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, errSource) {
					t.Fatalf("fail at %d: header error %v does not wrap the source error", failAt, err)
				}
				continue
			}
			for call := 0; ; call++ {
				_, err := sr.Next()
				_, wantErr := want.Next()
				if errText(err) != errText(wantErr) {
					t.Fatalf("chunk %d, fail at %d, Next #%d: %v, want %v", chunk, failAt, call, err, wantErr)
				}
				if err == nil {
					continue
				}
				if !errors.Is(err, errSource) {
					t.Fatalf("chunk %d, fail at %d: %v does not wrap the source error", chunk, failAt, err)
				}
				if _, again := sr.Next(); again != err {
					t.Fatalf("chunk %d, fail at %d: error not sticky: %v", chunk, failAt, again)
				}
				break
			}
		}
	}
}

// emptyReads returns (0, nil) forever.
type emptyReads struct{}

func (emptyReads) Read([]byte) (int, error) { return 0, nil }

// TestSegmentReaderStrayQuote covers the inputs that never close a
// record: a stray quote followed by far more quote-free lines than the
// runaway check's threshold fails with encoding/csv's error after
// reading a bounded prefix, not the whole input; a long quoted field
// that does close is still one record; and a source that keeps
// returning nothing fails like bufio does.
func TestSegmentReaderStrayQuote(t *testing.T) {
	const h = "ssn,age,doctor,note\n"
	filler := strings.Repeat("s9,40,Clerk,plain text without quotes\n", 40000)
	stray := h + "s1,34,Nurse,a\ns2,34,Nu\"rse,b\n" + filler
	src := &countingSource{r: strings.NewReader(stray), failAt: -1}
	sr, err := NewSegmentReader(src, segSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.Next()
	const want = "relation: line 3: parse error on line 3, column 9: bare \" in non-quoted-field"
	if err == nil || err.Error() != want {
		t.Fatalf("stray quote: %v, want %q", err, want)
	}
	if src.n > 256<<10 {
		t.Fatalf("stray quote: read %d of %d bytes before failing", src.n, len(stray))
	}

	long := h + "s1,34,Nurse,\"" + strings.Repeat("a long\nquoted field\n", 20000) + "\"\ns2,5,Clerk,b\n"
	if diff := matchOracle(long, 1, 2, func(r io.Reader) io.Reader { return r }); diff != "" {
		t.Fatalf("long quoted field: %s", diff)
	}

	sr, err = NewSegmentReader(io.MultiReader(strings.NewReader(h), emptyReads{}), segSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("empty reads: %v, want io.ErrNoProgress", err)
	}
}
