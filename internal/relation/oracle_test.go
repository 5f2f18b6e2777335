package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// csvSegments is the record-level segment reader SegmentReader
// replaced, kept as its differential oracle: encoding/csv decodes one
// record at a time (ReuseRecord) and each field is interned as a
// string, with the same dictionary sharing and retirement rules.
type csvSegments struct {
	cr      *csv.Reader
	perm    []int
	cols    []column
	chunk   int
	dictCap int
	lineNo  int
	done    bool
	err     error
}

func newCSVSegments(r io.Reader, schema *Schema, chunk int) (*csvSegments, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading header: %w", err)
	}
	perm, err := headerPerm(header, schema)
	if err != nil {
		return nil, err
	}
	return &csvSegments{
		cr:      cr,
		perm:    perm,
		cols:    make([]column, schema.NumColumns()),
		chunk:   chunk,
		dictCap: max(4*chunk, minDictCap),
		lineNo:  2,
	}, nil
}

func (o *csvSegments) Next() (*Table, error) {
	if o.err != nil {
		return nil, o.err
	}
	if o.done {
		return nil, io.EOF
	}
	codes := make([][]uint32, len(o.cols))
	n := 0
	for ; n < o.chunk; n++ {
		rec, err := o.cr.Read()
		if err == io.EOF {
			o.done = true
			break
		}
		if err != nil {
			o.err = fmt.Errorf("relation: line %d: %w", o.lineNo, err)
			return nil, o.err
		}
		o.lineNo++
		for i, v := range rec {
			ci := o.perm[i]
			codes[ci] = append(codes[ci], o.cols[ci].intern(v))
		}
	}
	if n == 0 {
		return nil, io.EOF
	}
	seg := &Table{cols: make([]column, len(o.cols))}
	for ci := range o.cols {
		dict := o.cols[ci].dict
		seg.cols[ci].dict = dict[:len(dict):len(dict)]
		seg.cols[ci].codes = codes[ci]
	}
	for ci := range o.cols {
		if len(o.cols[ci].dict) > o.dictCap {
			o.cols[ci] = column{}
		}
	}
	return seg, nil
}

// feeds are the source shapes the differential tests read through:
// whole, one byte per Read, and half of each requested block, so block
// boundaries land inside quoted fields and "\r\n" pairs.
var feeds = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// errText renders an error for comparison; nil renders as "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameSegment reports how got differs from want, codes and dictionaries
// included, or "" when they are identical.
func sameSegment(got, want *Table) string {
	if len(got.cols) != len(want.cols) {
		return fmt.Sprintf("%d columns, want %d", len(got.cols), len(want.cols))
	}
	for ci := range want.cols {
		g, w := &got.cols[ci], &want.cols[ci]
		if len(g.codes) != len(w.codes) {
			return fmt.Sprintf("column %d: %d rows, want %d", ci, len(g.codes), len(w.codes))
		}
		for i := range w.codes {
			if g.codes[i] != w.codes[i] {
				return fmt.Sprintf("column %d row %d: code %d, want %d", ci, i, g.codes[i], w.codes[i])
			}
		}
		if len(g.dict) != len(w.dict) {
			return fmt.Sprintf("column %d: dictionary of %d, want %d", ci, len(g.dict), len(w.dict))
		}
		for k := range w.dict {
			if g.dict[k] != w.dict[k] {
				return fmt.Sprintf("column %d code %d: %q, want %q", ci, k, g.dict[k], w.dict[k])
			}
		}
	}
	return ""
}

// matchOracle drains a SegmentReader with the given worker count,
// every row range decoded on the workers and segments built in pieces
// of 4-workers records, against the csvSegments
// oracle over the same input: the same header verdict, then segment by
// segment the same codes and dictionaries, and the same error text on
// the same call, which stays sticky. It returns the first difference,
// or "".
func matchOracle(input string, chunk, workers int, feed func(io.Reader) io.Reader) string {
	schema := segSchema()
	want, wantErr := newCSVSegments(strings.NewReader(input), schema, chunk)
	sr, err := NewSegmentReader(feed(strings.NewReader(input)), schema, chunk)
	if errText(err) != errText(wantErr) {
		return fmt.Sprintf("header: error %q, want %q", errText(err), errText(wantErr))
	}
	if err != nil {
		return ""
	}
	sr.workers, sr.piece = workers, 4-workers
	for call := 0; ; call++ {
		got, err := sr.Next()
		exp, wantErr := want.Next()
		if errText(err) != errText(wantErr) {
			return fmt.Sprintf("Next #%d: error %q, want %q", call, errText(err), errText(wantErr))
		}
		if err != nil {
			if _, again := sr.Next(); errText(again) != errText(err) {
				return fmt.Sprintf("Next after %q: %q, not sticky", errText(err), errText(again))
			}
			return ""
		}
		if diff := sameSegment(got, exp); diff != "" {
			return fmt.Sprintf("Next #%d: %s", call, diff)
		}
	}
}

// FuzzSegmentReaderMatchesCSV is the byte-level reader's differential
// against encoding/csv: on any document, at every chunk size, worker
// count and source shape, SegmentReader yields the segments the
// record-level oracle yields and fails where it fails with the same
// error text; ReadCSV agrees with the oracle drained whole.
func FuzzSegmentReaderMatchesCSV(f *testing.F) {
	f.Add("ssn,age,doctor,note\ns1,34,Nurse,a\ns2,67,Surgeon,b\ns3,9,Clerk,c\n", 2)
	f.Add("doctor,ssn,note,age\r\nNurse,s1,a,34\r\n\r\nClerk,s2,\"x\r\ny\",5\r", 1)
	f.Add("ssn,age,doctor,note\n\"s,1\",\"3\n4\",\"Nu\"\"rse\",\"\"\n\"s\n2\",5,N,x\n", 1)
	f.Add("ssn,age,doctor,note\nс1,34,Ärztin,後藤\nс2,34,Ärztin,後藤\n", 3)
	f.Add("ssn,age,doctor,note\ns1,34,Nu\"rse,a\n", 0)
	f.Add("ssn,age,doctor,note\ns1,34,\"Nurse\"x,a\n", 2)
	f.Add("ssn,age,doctor,note\ns1,34,Nurse,\"abc\nde\n", 4)
	f.Add("ssn,age,doctor,note\ns1,34,Nurse,\"a\nb\"\n\n\ns2,34\n", 5)
	f.Add("ssn,age,doctor,note\ns1,,,\n,,,\n\r\n\r", 7)
	f.Add("ssn,age,\"doc\n", 1)
	f.Add("\n\nssn,age,doctor,note\na\r\rb,c,d,e\r\r\n", 1)
	f.Add("", 4)
	f.Fuzz(func(t *testing.T, input string, chunk int) {
		if chunk < 0 {
			chunk = -chunk
		}
		chunk %= 6 // tiny segments and the <=0 default path
		for _, fd := range feeds {
			for workers := 1; workers <= 3; workers++ {
				if diff := matchOracle(input, chunk, workers, fd.wrap); diff != "" {
					t.Fatalf("%s feed, %d workers, chunk %d: %s", fd.name, workers, chunk, diff)
				}
			}
		}

		got, err := ReadCSV(strings.NewReader(input), segSchema())
		want, wantErr := oracleReadCSV(strings.NewReader(input), segSchema())
		if errText(err) != errText(wantErr) {
			t.Fatalf("ReadCSV: error %q, want %q", errText(err), errText(wantErr))
		}
		if err == nil {
			tablesEqual(t, got, want)
		}
	})
}

// oracleReadCSV drains csvSegments into one table.
func oracleReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	o, err := newCSVSegments(r, schema, 0)
	if err != nil {
		return nil, err
	}
	t := NewTable(schema)
	for {
		seg, err := o.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		seg.schema = schema
		if err := t.AppendTable(seg); err != nil {
			return nil, err
		}
	}
}

// TestSegmentReaderMatchesCSVAcrossRetirement runs the differential
// over enough distinct identifiers to retire the shared dictionary
// several times and double the identifier column's index table.
func TestSegmentReaderMatchesCSVAcrossRetirement(t *testing.T) {
	var b strings.Builder
	b.WriteString("ssn,age,doctor,note\n")
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&b, "id-%07d,%d,\"Dr, %d\",n%d\n", i*7919%60000, i%97, i%13, i%5000)
	}
	input := b.String()
	for _, chunk := range []int{0, 3000} {
		for _, workers := range []int{1, 2} {
			if diff := matchOracle(input, chunk, workers, iotest.HalfReader); diff != "" {
				t.Fatalf("chunk %d, %d workers: %s", chunk, workers, diff)
			}
		}
	}
}
