package core

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/relation"
)

func csvOf(t *testing.T, tbl *relation.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestPlanApplyEqualsProtect pins the staged-pipeline contract: Protect
// is exactly Plan followed by Apply, byte-identical for every worker
// count — including an Apply driven by a plan that went through JSON
// (the cold path, with no in-process search state).
func TestPlanApplyEqualsProtect(t *testing.T) {
	tbl := testData(t, 2500)
	key := crypt.NewWatermarkKeyFromSecret("staged owner", 25)
	var baseline string
	for _, workers := range []int{1, 2, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := fw.Protect(tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		protCSV := csvOf(t, prot.Table)
		if baseline == "" {
			baseline = protCSV
		} else if protCSV != baseline {
			t.Fatalf("workers=%d: Protect output differs across worker counts", workers)
		}

		plan, err := fw.Plan(tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := fw.Apply(tbl, plan, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := csvOf(t, hot.Table); got != protCSV {
			t.Fatalf("workers=%d: Plan+Apply output differs from Protect", workers)
		}
		if !provEqual(hot.Provenance, prot.Provenance) {
			t.Fatalf("workers=%d: Plan+Apply provenance differs from Protect", workers)
		}

		// Cold path: the plan round-trips through its JSON format first.
		data, err := MarshalPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ParsePlan(data)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := fw.Apply(tbl, cold, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := csvOf(t, applied.Table); got != protCSV {
			t.Fatalf("workers=%d: Apply of deserialized plan differs from Protect", workers)
		}
		if applied.Plan.Rows != applied.Table.NumRows() || len(applied.Plan.Bins) == 0 {
			t.Fatalf("workers=%d: effective plan lacks the published bin record", workers)
		}
		det, err := fw.Detect(applied.Table, applied.Provenance, key)
		if err != nil {
			t.Fatal(err)
		}
		if !det.Match || det.MarkLoss != 0 {
			t.Fatalf("workers=%d: detection after staged protect: match=%v loss=%v", workers, det.Match, det.MarkLoss)
		}
	}
}

// provEqual compares provenance records (Columns is a map, so the
// struct is not comparable with ==).
func provEqual(a, b Provenance) bool {
	return reflect.DeepEqual(a, b)
}

// TestPlanApplyAggressiveColdPath covers the suppression replay: under
// the aggressive rule the plan records the deficient frontier values,
// and an Apply driven by the deserialized plan (no in-process search
// state) must suppress the same rows and produce the same bytes.
func TestPlanApplyAggressiveColdPath(t *testing.T) {
	fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Aggressive: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testData(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("aggressive owner", 25)
	prot, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if prot.Binning.Suppressed == 0 || len(prot.Plan.Suppress) == 0 {
		t.Fatalf("aggressive fixture suppressed nothing (suppressed=%d, recorded=%d) — the cold path is vacuous",
			prot.Binning.Suppressed, len(prot.Plan.Suppress))
	}
	data, err := MarshalPlan(&prot.Plan)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := fw.Apply(tbl, cold, key)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csvOf(t, applied.Table), csvOf(t, prot.Table); got != want {
		t.Fatal("cold aggressive Apply differs from Protect")
	}
	if applied.Binning.Suppressed != prot.Binning.Suppressed {
		t.Errorf("cold Apply suppressed %d rows, Protect %d", applied.Binning.Suppressed, prot.Binning.Suppressed)
	}
}

// TestPlanToleratesOrphanDictEntries regression-tests the AutoEpsilon
// planning scan against orphaned dictionary entries: a Slice that
// excludes a bad row still carries its value in the column dictionary
// (dictionaries copy wholesale), and planning must ignore it exactly as
// the transform path does.
func TestPlanToleratesOrphanDictEntries(t *testing.T) {
	tbl := testData(t, 1501)
	ci, err := tbl.Schema().Index(ontology.ColSymptom)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetCellAt(1500, ci, "typo'd out-of-ontology symptom")
	base, err := tbl.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	fw := testFramework(t)
	key := crypt.NewWatermarkKeyFromSecret("orphan owner", 25)
	if _, err := fw.Protect(base, key); err != nil {
		t.Fatalf("orphan dictionary entry failed the protect run: %v", err)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("roundtrip", 25)
	prot, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	plan := prot.Plan
	data, err := MarshalPlan(&plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !provEqual(back.Provenance, plan.Provenance) {
		t.Error("provenance did not round-trip")
	}
	if back.EffectiveK != plan.EffectiveK || back.AvgLoss != plan.AvgLoss || back.Rows != plan.Rows {
		t.Error("plan scalars did not round-trip")
	}
	if len(back.Bins) != len(plan.Bins) {
		t.Fatalf("bins: %d, want %d", len(back.Bins), len(plan.Bins))
	}
	for bin, n := range plan.Bins {
		if back.Bins[bin] != n {
			t.Fatalf("bin %q: %d, want %d", bin, back.Bins[bin], n)
		}
	}
}

func TestParsePlanRejectsMismatches(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("reject", 25)
	plan, err := fw.Plan(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	good, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(s string) string{
		"version mismatch": func(s string) string {
			return strings.Replace(s, `"plan_version": 1`, `"plan_version": 99`, 1)
		},
		"missing version": func(s string) string {
			return strings.Replace(s, `"plan_version": 1`, `"plan_version": 0`, 1)
		},
		"unknown field": func(s string) string {
			return strings.Replace(s, `"plan_version": 1`, `"plan_version": 1, "bogus_field": true`, 1)
		},
		"mark corrupted": func(s string) string {
			return strings.Replace(s, `"mark": "`, `"mark": "x`, 1)
		},
		"k zeroed": func(s string) string {
			return strings.Replace(s, `"k": 15`, `"k": 0`, 1)
		},
		"effective k below k": func(s string) string {
			return strings.Replace(s, `"effective_k": `, `"effective_k": -`, 1)
		},
		"not json": func(string) string { return "{" },
	}
	for name, mutate := range cases {
		doc := mutate(string(good))
		if doc == string(good) {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := ParsePlan([]byte(doc)); !errors.Is(err, ErrBadProvenance) {
			t.Errorf("%s: error %v, want ErrBadProvenance", name, err)
		}
	}

	// The untouched document still parses.
	if _, err := ParsePlan(good); err != nil {
		t.Fatalf("pristine plan rejected: %v", err)
	}
}

func TestApplyValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("apply validation", 25)
	if _, err := fw.Apply(tbl, nil, key); !errors.Is(err, ErrBadProvenance) {
		t.Errorf("nil plan: %v, want ErrBadProvenance", err)
	}
	plan, err := fw.Plan(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	bad := *plan
	bad.FormatVersion = 7
	if _, err := fw.Apply(tbl, &bad, key); !errors.Is(err, ErrBadProvenance) {
		t.Errorf("bad version: %v, want ErrBadProvenance", err)
	}
	if _, err := fw.Apply(tbl, plan, crypt.WatermarkKey{}); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad key: %v, want ErrBadKey", err)
	}
}

// TestApplyBelowKUnsatisfiable applies a plan to a table too small for
// its frontiers: the in-memory apply must classify the k+ε violation as
// ErrUnsatisfiable, exactly as the streamed apply does.
func TestApplyBelowKUnsatisfiable(t *testing.T) {
	big, err := datagen.Generate(datagen.Config{Rows: 5000, Seed: 7, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	small, err := datagen.Generate(datagen.Config{Rows: 60, Seed: 8, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(ontology.Trees(), Config{K: 20, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("below k", 25)
	plan, err := fw.Plan(big, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ApplyContext(context.Background(), small, plan, key); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("ApplyContext: err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := fw.ApplyStream(context.Background(), small.Segments(16), plan, key, io.Discard); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("ApplyStream: err = %v, want ErrUnsatisfiable", err)
	}
}
