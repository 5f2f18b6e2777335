package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binning"
	"repro/internal/core"
	"repro/internal/relation"
)

func wireTable() Table {
	return Table{
		Columns: []Column{
			{Name: "id", Kind: "identifying"},
			{Name: "age", Kind: "quasi-numeric"},
			{Name: "note", Kind: "other"},
		},
		Rows: [][]string{{"a", "30", "x"}, {"b", "41", "y"}},
	}
}

func TestTableRoundTrip(t *testing.T) {
	for _, output := range []string{OutputRows, OutputCSV, ""} {
		tbl, err := DecodeTable(wireTable())
		if err != nil {
			t.Fatal(err)
		}
		wire, err := EncodeTable(tbl, output)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeTable(wire)
		if err != nil {
			t.Fatalf("output=%q: %v", output, err)
		}
		if back.NumRows() != 2 {
			t.Fatalf("output=%q: %d rows", output, back.NumRows())
		}
		for i := 0; i < 2; i++ {
			for c := 0; c < 3; c++ {
				if back.CellAt(i, c) != tbl.CellAt(i, c) {
					t.Fatalf("output=%q: cell (%d,%d) = %q", output, i, c, back.CellAt(i, c))
				}
			}
		}
		if back.Schema().Column(0).Kind != relation.Identifying ||
			back.Schema().Column(1).Kind != relation.QuasiNumeric ||
			back.Schema().Column(2).Kind != relation.Other {
			t.Fatalf("output=%q: kinds lost", output)
		}
	}
}

func TestDecodeTableRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Table)
	}{
		{"no columns", func(t *Table) { t.Columns = nil }},
		{"bad kind", func(t *Table) { t.Columns[0].Kind = "mystery" }},
		{"rows and csv", func(t *Table) { t.CSV = "id,age,note\n" }},
		{"short row", func(t *Table) { t.Rows = [][]string{{"only-one"}} }},
		{"dup column", func(t *Table) { t.Columns[1].Name = "id" }},
	}
	for _, tc := range cases {
		w := wireTable()
		tc.mut(&w)
		if _, err := DecodeTable(w); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDecodeTableCSVHeaderMismatch(t *testing.T) {
	w := wireTable()
	w.Rows = nil
	w.CSV = "id,age,wrong\na,30,x\n"
	if _, err := DecodeTable(w); err == nil {
		t.Fatal("mismatched CSV header accepted")
	}
}

func TestParseKindAliases(t *testing.T) {
	for in, want := range map[string]relation.Kind{
		"identifying":       relation.Identifying,
		"ID":                relation.Identifying,
		"quasi-categorical": relation.QuasiCategorical,
		"quasi_numeric":     relation.QuasiNumeric,
		"other":             relation.Other,
		"":                  relation.Other,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
}

func TestOptionsApply(t *testing.T) {
	base := core.Config{K: 20, AutoEpsilon: true, Workers: 4, LossThreshold: 0.15}

	// nil options inherit everything.
	var o *Options
	cfg, err := o.Apply(base)
	if err != nil || !reflect.DeepEqual(cfg, base) {
		t.Fatalf("nil options: (%+v, %v)", cfg, err)
	}

	f := false
	w := 0
	lt := 0.3
	cfg, err = (&Options{
		K:             5,
		AutoEpsilon:   &f,
		Workers:       &w,
		LossThreshold: &lt,
		Strategy:      "greedy",
	}).Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 5 || cfg.AutoEpsilon || cfg.Workers != 0 || cfg.LossThreshold != 0.3 ||
		cfg.Strategy != binning.StrategyGreedy {
		t.Fatalf("overrides not applied: %+v", cfg)
	}

	if _, err := (&Options{Strategy: "quantum"}).Apply(base); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		code   string
		status int
	}{
		{fmt.Errorf("x: %w", core.ErrBadConfig), CodeBadConfig, http.StatusBadRequest},
		{fmt.Errorf("x: %w", core.ErrBadKey), CodeBadKey, http.StatusBadRequest},
		{fmt.Errorf("x: %w", core.ErrBadSchema), CodeBadSchema, http.StatusBadRequest},
		{fmt.Errorf("x: %w", core.ErrBadProvenance), CodeBadProvenance, http.StatusBadRequest},
		{fmt.Errorf("x: %w", core.ErrUnsatisfiable), CodeUnsatisfiable, http.StatusUnprocessableEntity},
		{fmt.Errorf("x: %w", core.ErrKeyMismatch), CodeKeyMismatch, http.StatusForbidden},
		{context.Canceled, CodeCanceled, 499},
		{context.DeadlineExceeded, CodeDeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("mystery"), CodeInternal, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		code, status := Classify(tc.err)
		if code != tc.code || status != tc.status {
			t.Errorf("Classify(%v) = (%s, %d), want (%s, %d)", tc.err, code, status, tc.code, tc.status)
		}
	}
}

func TestDecodeJSONTrailingGarbage(t *testing.T) {
	var v map[string]any
	for _, body := range []string{`{"a":1} trailing`, `{"a":1}}`, "{\"a\":1}\n]\n", `{"a":1}{}`} {
		if err := DecodeJSON(strings.NewReader(body), &v); err == nil {
			t.Fatalf("trailing data %q accepted", body)
		}
	}
	if err := DecodeJSON(strings.NewReader(`{"a":1}`), &v); err != nil {
		t.Fatal(err)
	}
}
