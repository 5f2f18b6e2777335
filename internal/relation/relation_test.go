package relation

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "ssn", Kind: Identifying},
		{Name: "age", Kind: QuasiNumeric},
		{Name: "doctor", Kind: QuasiCategorical},
		{Name: "note", Kind: Other},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable(testSchema(t))
	rows := [][]string{
		{"s1", "34", "Nurse", "a"},
		{"s2", "67", "Surgeon", "b"},
		{"s3", "12", "Clerk", "c"},
		{"s4", "45", "Nurse", "d"},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema([]Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema([]Column{{Name: "  "}}); err == nil {
		t.Error("blank name accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.NumColumns() != 4 {
		t.Errorf("NumColumns = %d", s.NumColumns())
	}
	i, err := s.Index("doctor")
	if err != nil || i != 2 {
		t.Errorf("Index(doctor) = %d, %v", i, err)
	}
	if _, err := s.Index("missing"); err == nil {
		t.Error("missing column resolved")
	}
	if got := strings.Join(s.Names(), ","); got != "ssn,age,doctor,note" {
		t.Errorf("Names = %s", got)
	}
	if got := s.QuasiColumns(); len(got) != 2 || got[0] != "age" || got[1] != "doctor" {
		t.Errorf("QuasiColumns = %v", got)
	}
	if got := s.IdentColumns(); len(got) != 1 || got[0] != "ssn" {
		t.Errorf("IdentColumns = %v", got)
	}
	if got := s.ColumnsOfKind(Other); len(got) != 1 || got[0] != "note" {
		t.Errorf("ColumnsOfKind(Other) = %v", got)
	}
	if s.Column(1).Kind != QuasiNumeric {
		t.Error("Column(1) kind wrong")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Identifying:      "identifying",
		QuasiCategorical: "quasi-categorical",
		QuasiNumeric:     "quasi-numeric",
		Other:            "other",
		Kind(42):         "Kind(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !QuasiNumeric.IsQuasi() || !QuasiCategorical.IsQuasi() || Identifying.IsQuasi() || Other.IsQuasi() {
		t.Error("IsQuasi wrong")
	}
}

func TestAppendRowValidation(t *testing.T) {
	tbl := NewTable(testSchema(t))
	if err := tbl.AppendRow([]string{"too", "short"}); err == nil {
		t.Error("short row accepted")
	}
	row := []string{"s1", "30", "Nurse", "x"}
	if err := tbl.AppendRow(row); err != nil {
		t.Fatal(err)
	}
	row[0] = "mutated"
	if got, _ := tbl.Cell(0, "ssn"); got != "s1" {
		t.Error("AppendRow did not copy the row")
	}
}

func TestCellAccess(t *testing.T) {
	tbl := testTable(t)
	v, err := tbl.Cell(1, "doctor")
	if err != nil || v != "Surgeon" {
		t.Errorf("Cell = %q, %v", v, err)
	}
	if _, err := tbl.Cell(0, "missing"); err == nil {
		t.Error("missing column read")
	}
	if _, err := tbl.Cell(99, "ssn"); err == nil {
		t.Error("out-of-range row read")
	}
	if err := tbl.SetCell(1, "doctor", "Nurse"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Cell(1, "doctor"); v != "Nurse" {
		t.Error("SetCell did not stick")
	}
	if err := tbl.SetCell(99, "doctor", "x"); err == nil {
		t.Error("out-of-range SetCell accepted")
	}
	if err := tbl.SetCell(0, "missing", "x"); err == nil {
		t.Error("missing-column SetCell accepted")
	}
	// Fast path
	ci, _ := tbl.Schema().Index("age")
	if tbl.CellAt(2, ci) != "12" {
		t.Error("CellAt wrong")
	}
	tbl.SetCellAt(2, ci, "13")
	if tbl.CellAt(2, ci) != "13" {
		t.Error("SetCellAt wrong")
	}
}

func TestRowAndColumnCopies(t *testing.T) {
	tbl := testTable(t)
	r := tbl.Row(0)
	r[0] = "mutated"
	if v, _ := tbl.Cell(0, "ssn"); v != "s1" {
		t.Error("Row exposed internal state")
	}
	col, err := tbl.Column("ssn")
	if err != nil || len(col) != 4 || col[3] != "s4" {
		t.Errorf("Column = %v, %v", col, err)
	}
	col[0] = "mutated"
	if v, _ := tbl.Cell(0, "ssn"); v != "s1" {
		t.Error("Column exposed internal state")
	}
	if _, err := tbl.Column("missing"); err == nil {
		t.Error("missing column read")
	}
}

func TestClone(t *testing.T) {
	tbl := testTable(t)
	cp := tbl.Clone()
	if err := cp.SetCell(0, "ssn", "mutated"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Cell(0, "ssn"); v != "s1" {
		t.Error("Clone shares row storage")
	}
	if cp.NumRows() != tbl.NumRows() {
		t.Error("Clone row count wrong")
	}
}

func TestDeleteRows(t *testing.T) {
	tbl := testTable(t)
	if err := tbl.DeleteRows([]int{1, 3, 1}); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tbl.NumRows())
	}
	a, _ := tbl.Cell(0, "ssn")
	b, _ := tbl.Cell(1, "ssn")
	if a != "s1" || b != "s3" {
		t.Errorf("remaining rows = %s,%s; want s1,s3", a, b)
	}
	if err := tbl.DeleteRows([]int{5}); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if err := tbl.DeleteRows(nil); err != nil {
		t.Error("empty delete should be a no-op")
	}
}

func TestSlice(t *testing.T) {
	tbl := testTable(t)
	mid, err := tbl.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mid.NumRows() != 2 {
		t.Fatalf("slice rows = %d, want 2", mid.NumRows())
	}
	if got := mid.Row(0); got[0] != "s2" || got[2] != "Surgeon" {
		t.Errorf("slice row 0 = %v", got)
	}
	if got := mid.Row(1); got[0] != "s3" {
		t.Errorf("slice row 1 = %v", got)
	}
	// The slice is independent: mutating it leaves the source intact.
	mid.SetCellAt(0, 0, "changed")
	if v, _ := tbl.Cell(1, "ssn"); v != "s2" {
		t.Error("slice mutation leaked into the source table")
	}
	// Empty and full ranges.
	if empty, err := tbl.Slice(2, 2); err != nil || empty.NumRows() != 0 {
		t.Errorf("empty slice: %v, rows=%d", err, empty.NumRows())
	}
	if full, err := tbl.Slice(0, tbl.NumRows()); err != nil || full.NumRows() != tbl.NumRows() {
		t.Errorf("full slice: %v", err)
	}
	// Out-of-range requests are rejected.
	for _, r := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if _, err := tbl.Slice(r[0], r[1]); err == nil {
			t.Errorf("slice [%d,%d) accepted", r[0], r[1])
		}
	}
}

func TestAppendTable(t *testing.T) {
	a := testTable(t)
	b := testTable(t)
	if err := a.AppendTable(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 8 {
		t.Errorf("NumRows = %d, want 8", a.NumRows())
	}
	narrow := NewTable(MustSchema(Column{Name: "x"}))
	if err := a.AppendTable(narrow); err == nil {
		t.Error("mismatched append accepted")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tbl := testTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", back.NumRows(), tbl.NumRows())
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for _, c := range tbl.Schema().Names() {
			a, _ := tbl.Cell(i, c)
			b, _ := back.Cell(i, c)
			if a != b {
				t.Errorf("row %d col %s: %q != %q", i, c, a, b)
			}
		}
	}
}

func TestCSVColumnPermutation(t *testing.T) {
	// A CSV with permuted column order must map cells by name.
	csvText := "doctor,ssn,note,age\nNurse,s1,a,34\n"
	back, err := ReadCSV(strings.NewReader(csvText), testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Cell(0, "ssn"); v != "s1" {
		t.Errorf("ssn = %q", v)
	}
	if v, _ := back.Cell(0, "age"); v != "34" {
		t.Errorf("age = %q", v)
	}
}

func TestCSVErrors(t *testing.T) {
	s := testSchema(t)
	cases := []string{
		"",                                // no header
		"a,b\n",                           // wrong column count
		"ssn,age,doctor,bogus\n",          // unknown column
		"ssn,ssn,doctor,note\n",           // duplicate column
		"ssn,age,doctor,note\nonly,two\n", // short record
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), s); err == nil {
			t.Errorf("CSV %q accepted", c)
		}
	}
}

func TestCodeAccessors(t *testing.T) {
	tbl := testTable(t)
	ci, _ := tbl.Schema().Index("doctor")
	// Dictionary encoding: the two "Nurse" cells share one code.
	if tbl.CodeAt(0, ci) != tbl.CodeAt(3, ci) {
		t.Error("equal values got distinct codes")
	}
	if got := tbl.ValueOf(ci, tbl.CodeAt(0, ci)); got != "Nurse" {
		t.Errorf("ValueOf = %q", got)
	}
	code, ok := tbl.CodeOf(ci, "Surgeon")
	if !ok || tbl.ValueOf(ci, code) != "Surgeon" {
		t.Errorf("CodeOf(Surgeon) = %d, %v", code, ok)
	}
	if _, ok := tbl.CodeOf(ci, "absent"); ok {
		t.Error("CodeOf resolved an absent value")
	}
	if got := len(tbl.Codes(ci)); got != tbl.NumRows() {
		t.Errorf("Codes length = %d", got)
	}
	if got := len(tbl.DictValues(ci)); got != 3 {
		t.Errorf("DictValues length = %d", got)
	}
	// SetCodeAt writes without interning; out-of-range codes panic.
	tbl.SetCodeAt(2, ci, code)
	if v, _ := tbl.Cell(2, "doctor"); v != "Surgeon" {
		t.Error("SetCodeAt did not stick")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range SetCodeAt did not panic")
			}
		}()
		tbl.SetCodeAt(0, ci, 99)
	}()
	// InternValue grows the dictionary without touching rows.
	n := tbl.NumRows()
	newCode := tbl.InternValue(ci, "Radiologist")
	if tbl.NumRows() != n || tbl.ValueOf(ci, newCode) != "Radiologist" {
		t.Error("InternValue changed rows or misfiled the value")
	}
}

func TestRowViewAndChunks(t *testing.T) {
	tbl := testTable(t)
	v := tbl.View(1)
	if v.i != 1 || v.Cell(0) != "s2" || tbl.ValueOf(0, v.Code(0)) != "s2" {
		t.Errorf("RowView = %v %q", v.i, v.Cell(0))
	}
	if got := v.AppendTo(nil); len(got) != 4 || got[2] != "Surgeon" {
		t.Errorf("AppendTo = %v", got)
	}
	var ranges [][2]int
	if err := tbl.ForEachRowChunk(3, func(lo, hi int) error {
		ranges = append(ranges, [2]int{lo, hi})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 || ranges[0] != [2]int{0, 3} || ranges[1] != [2]int{3, 4} {
		t.Errorf("chunks = %v", ranges)
	}
	wantErr := fmt.Errorf("stop")
	if err := tbl.ForEachRowChunk(1, func(lo, hi int) error { return wantErr }); err != wantErr {
		t.Errorf("chunk error = %v", err)
	}
}

func TestMapColumn(t *testing.T) {
	tbl := testTable(t)
	ci, _ := tbl.Schema().Index("doctor")
	// Merge Nurse and Surgeon into Staff; Clerk unchanged.
	changed, err := tbl.MapColumnCtx(context.Background(), 1, ci, func(dst []byte, v string) ([]byte, error) {
		if v == "Nurse" || v == "Surgeon" {
			return append(dst, "Staff"...), nil
		}
		return append(dst, v...), nil
	}, nil)
	if err != nil || changed != 3 {
		t.Fatalf("MapColumn = %d, %v; want 3 changed", changed, err)
	}
	for i, want := range []string{"Staff", "Staff", "Clerk", "Staff"} {
		if v, _ := tbl.Cell(i, "doctor"); v != want {
			t.Errorf("row %d doctor = %q, want %q", i, v, want)
		}
	}
	// The dictionary compacted: merged outputs share one entry.
	if got := len(tbl.DictValues(ci)); got != 2 {
		t.Errorf("dictionary length = %d, want 2", got)
	}
	// Errors abort without committing.
	if _, err := tbl.MapColumnCtx(context.Background(), 1, ci, func(dst []byte, v string) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}, nil); err == nil {
		t.Error("MapColumn error not propagated")
	}
	if v, _ := tbl.Cell(0, "doctor"); v != "Staff" {
		t.Error("failed MapColumn mutated the table")
	}
	// Unused dictionary entries are skipped: delete all Clerk rows, then
	// map with a fn that rejects Clerk — it must never see the value.
	tbl.DeleteWhereView(func(v RowView) bool { return v.Cell(ci) == "Clerk" })
	if _, err := tbl.MapColumnCtx(context.Background(), 1, ci, func(dst []byte, v string) ([]byte, error) {
		if v == "Clerk" {
			return nil, fmt.Errorf("stale entry visited")
		}
		return append(dst, v...), nil
	}, nil); err != nil {
		t.Errorf("MapColumn visited a stale dictionary entry: %v", err)
	}
}

// TestMapColumnCtxWorkers: whatever the worker count, and so however
// the dictionary is split into arenas, MapColumnCtx merges equal outputs
// across ranges into the same first-use-ordered dictionary, skips
// unused entries and reports the lowest failing entry.
func TestMapColumnCtxWorkers(t *testing.T) {
	build := func() *Table {
		tbl := NewTable(testSchema(t))
		for i := 0; i < 300; i++ {
			row := []string{fmt.Sprintf("s%03d", i), "34", "Nurse", "a"}
			if err := tbl.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		tbl.DeleteWhereView(func(v RowView) bool { return strings.HasSuffix(v.Cell(0), "7") })
		return tbl
	}
	// Keep the first two characters: "s0", "s1", "s2" merge entries
	// from far-apart dictionary ranges.
	prefix := func(dst []byte, v string) ([]byte, error) {
		if strings.HasSuffix(v, "7") {
			return nil, fmt.Errorf("unused entry %q visited", v)
		}
		return append(dst, v[:2]...), nil
	}
	want := build()
	if _, err := want.MapColumnCtx(context.Background(), 1, 0, prefix, nil); err != nil {
		t.Fatal(err)
	}
	if got := want.DictValues(0); !slices.Equal(got, []string{"s0", "s1", "s2"}) {
		t.Fatalf("dictionary = %q, want [s0 s1 s2]", got)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		tbl := build()
		changed, err := tbl.MapColumnCtx(context.Background(), workers, 0, prefix, nil)
		if err != nil || changed != tbl.NumRows() {
			t.Fatalf("workers=%d: MapColumnCtx = %d, %v; want %d changed", workers, changed, err, tbl.NumRows())
		}
		if !slices.Equal(tbl.DictValues(0), want.DictValues(0)) || !slices.Equal(tbl.Codes(0), want.Codes(0)) {
			t.Errorf("workers=%d: dictionary or codes differ from the sequential run", workers)
		}
		_, err = build().MapColumnCtx(context.Background(), workers, 0, func(dst []byte, v string) ([]byte, error) {
			if v >= "s150" {
				return nil, fmt.Errorf("entry %s", v)
			}
			return append(dst, v...), nil
		}, nil)
		if err == nil || err.Error() != "entry s150" {
			t.Errorf("workers=%d: error = %v, want the lowest failing entry s150", workers, err)
		}
	}
}

// TestMapColumnCtxInjective: a map declared injective, with its output
// lengths, skips the dedup index and sizes each arena once; for every
// worker count it must build the dictionary, codes and changed count
// of the dedup path, skipping unused entries the same way.
func TestMapColumnCtxInjective(t *testing.T) {
	build := func() *Table {
		tbl := NewTable(testSchema(t))
		for i := 0; i < 300; i++ {
			row := []string{fmt.Sprintf("s%d", i%250), "34", "Nurse", "a"}
			if err := tbl.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		tbl.DeleteWhereView(func(v RowView) bool { return strings.HasSuffix(v.Cell(0), "7") })
		return tbl
	}
	tag := func(dst []byte, v string) ([]byte, error) {
		if strings.HasSuffix(v, "7") {
			return nil, fmt.Errorf("unused entry %q visited", v)
		}
		return append(append(dst, "id:"...), v...), nil
	}
	tagLen := func(v string) int { return len("id:") + len(v) }
	for _, workers := range []int{1, 2, 3, 8, 0} {
		want, got := build(), build()
		wantChanged, err := want.MapColumnCtx(context.Background(), workers, 0, tag, nil)
		if err != nil {
			t.Fatal(err)
		}
		changed, err := got.MapColumnCtx(context.Background(), workers, 0, tag, tagLen)
		if err != nil {
			t.Fatal(err)
		}
		if changed != wantChanged || changed != got.NumRows() {
			t.Errorf("workers=%d: %d rows changed, dedup path %d, want %d", workers, changed, wantChanged, got.NumRows())
		}
		if !slices.Equal(got.DictValues(0), want.DictValues(0)) || !slices.Equal(got.Codes(0), want.Codes(0)) {
			t.Errorf("workers=%d: injective dictionary or codes differ from the dedup path", workers)
		}
		if n := len(got.DictValues(0)); n != 225 {
			t.Errorf("workers=%d: dictionary holds %d entries, want the 225 values in use", workers, n)
		}
	}
}

func TestDeleteWhereView(t *testing.T) {
	tbl := testTable(t)
	ci, _ := tbl.Schema().Index("doctor")
	code, _ := tbl.CodeOf(ci, "Nurse")
	n := tbl.DeleteWhereView(func(v RowView) bool { return v.Code(ci) == code })
	if n != 2 || tbl.NumRows() != 2 {
		t.Errorf("DeleteWhereView removed %d, left %d", n, tbl.NumRows())
	}
}

func TestProject(t *testing.T) {
	tbl := testTable(t)
	sub := MustSchema(
		Column{Name: "doctor", Kind: QuasiCategorical},
		Column{Name: "ssn", Kind: Identifying},
	)
	out, err := tbl.Project(sub)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if v, _ := out.Cell(1, "doctor"); v != "Surgeon" {
		t.Errorf("projected doctor = %q", v)
	}
	if v, _ := out.Cell(1, "ssn"); v != "s2" {
		t.Errorf("projected ssn = %q", v)
	}
	// Mutating the projection must not touch the source.
	if err := out.SetCell(0, "ssn", "mutated"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Cell(0, "ssn"); v != "s1" {
		t.Error("Project shares code storage")
	}
	if _, err := tbl.Project(MustSchema(Column{Name: "missing"})); err == nil {
		t.Error("projection of a missing column accepted")
	}
}
