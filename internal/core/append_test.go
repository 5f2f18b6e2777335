package core

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// appendFixture plans and applies a base table, then carves a delta
// batch out of the same synthetic distribution (rows the base has never
// seen).
func appendFixture(t *testing.T, baseRows, deltaRows int) (*Framework, *Protected, *relation.Table, crypt.WatermarkKey) {
	t.Helper()
	all, err := datagen.Generate(datagen.Config{Rows: baseRows + deltaRows, Seed: 77, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := all.Slice(0, baseRows)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(baseRows, baseRows+deltaRows)
	if err != nil {
		t.Fatal(err)
	}
	fw := testFramework(t)
	key := crypt.NewWatermarkKeyFromSecret("append owner", 25)
	prot, err := fw.ProtectContext(context.Background(), base, key)
	if err != nil {
		t.Fatal(err)
	}
	return fw, prot, delta, key
}

// TestAppendDetectDisputeRoundTrip is the incremental-ingestion
// workflow: protect a base table, append a delta under the retained
// plan, and verify that detection and dispute over the published union
// still side with the owner.
func TestAppendDetectDisputeRoundTrip(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 4000, 600)
	plan := prot.Plan

	app, err := fw.AppendContext(context.Background(), delta, &plan, key)
	if err != nil {
		t.Fatal(err)
	}
	if app.Table.NumRows() != delta.NumRows()-app.Suppressed {
		t.Fatalf("appended %d rows, want %d", app.Table.NumRows(), delta.NumRows())
	}
	if app.Plan.Rows != plan.Rows+app.Table.NumRows() {
		t.Fatalf("advanced plan rows = %d, want %d", app.Plan.Rows, plan.Rows+app.Table.NumRows())
	}

	// The published union: base + delta.
	union := prot.Table.Clone()
	if err := union.AppendTable(app.Table); err != nil {
		t.Fatal(err)
	}

	// The advanced plan's bin record describes exactly the union.
	unionBins := 0
	for _, n := range app.Plan.Bins {
		unionBins += n
	}
	if unionBins != union.NumRows() {
		t.Fatalf("plan bins cover %d rows, union has %d", unionBins, union.NumRows())
	}

	// Detection over old+new rows votes the owner's mark.
	det, err := fw.DetectContext(context.Background(), union, app.Plan.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Fatalf("mark not found in union (loss %v)", det.MarkLoss)
	}
	if det.Result.Stats.TuplesSelected <= prot.Embed.TuplesSelected {
		t.Error("union detection selected no tuples from the appended batch")
	}

	// An impostor key still fails.
	badDet, err := fw.DetectContext(context.Background(), union, app.Plan.Provenance, crypt.NewWatermarkKeyFromSecret("impostor", 25))
	if err != nil {
		t.Fatal(err)
	}
	if badDet.Match {
		t.Error("impostor key matched the union")
	}

	// Dispute over the union upholds the owner (§5.4).
	verdicts, err := fw.DisputeContext(context.Background(), union, app.Plan.Provenance, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].Valid {
		t.Fatalf("owner dispute over the union failed: %+v", verdicts[0])
	}

	// A second nightly batch chains off the advanced plan.
	all, err := datagen.Generate(datagen.Config{Rows: 5200, Seed: 78, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := all.Slice(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	next := app.Plan
	app2, err := fw.AppendContext(context.Background(), second, &next, key)
	if err != nil {
		t.Fatal(err)
	}
	if app2.Plan.Rows != next.Rows+app2.Table.NumRows() {
		t.Fatalf("second append rows = %d, want %d", app2.Plan.Rows, next.Rows+app2.Table.NumRows())
	}
}

// TestAppendDeterministicAcrossWorkers pins the append transform to the
// same determinism contract as the full pipeline.
func TestAppendDeterministicAcrossWorkers(t *testing.T) {
	all, err := datagen.Generate(datagen.Config{Rows: 3000, Seed: 77, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := all.Slice(0, 2500)
	delta, _ := all.Slice(2500, 3000)
	key := crypt.NewWatermarkKeyFromSecret("append workers", 25)
	var baseline string
	for _, workers := range []int{1, 2, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := fw.ProtectContext(context.Background(), base, key)
		if err != nil {
			t.Fatal(err)
		}
		plan := prot.Plan
		app, err := fw.AppendContext(context.Background(), delta, &plan, key)
		if err != nil {
			t.Fatal(err)
		}
		got := csvOf(t, app.Table)
		if baseline == "" {
			baseline = got
		} else if got != baseline {
			t.Fatalf("workers=%d: append output differs", workers)
		}
	}
}

func TestAppendPlanDriftOutsideFrontier(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 2500, 10)
	plan := prot.Plan

	// A symptom outside the ontology cannot resolve to any planned leaf.
	bad := delta.Clone()
	ci, err := bad.Schema().Index(ontology.ColSymptom)
	if err != nil {
		t.Fatal(err)
	}
	bad.SetCellAt(0, ci, "martian flu")
	_, err = fw.AppendContext(context.Background(), bad, &plan, key)
	if !errors.Is(err, ErrPlanDrift) {
		t.Fatalf("out-of-domain delta: %v, want ErrPlanDrift", err)
	}
	if !strings.Contains(err.Error(), "planned frontiers") {
		t.Errorf("drift error lacks frontier context: %v", err)
	}
}

func TestAppendPlanDriftThinNewBin(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 4000, 25)
	plan := prot.Plan

	// Baseline: this delta appends cleanly under the true plan.
	app, err := fw.AppendContext(context.Background(), delta, &plan, key)
	if err != nil {
		t.Fatal(err)
	}

	// Hand the append a plan whose record has never published a thin
	// bin of the marked delta — the situation of a batch opening a
	// fresh, under-populated value combination. The append must refuse
	// with ErrPlanDrift rather than publish a bin below k.
	doctored := withoutThinBin(t, plan, app.Table)
	_, err = fw.AppendContext(context.Background(), delta, &doctored, key)
	if !errors.Is(err, ErrPlanDrift) {
		t.Fatalf("thin new bin: %v, want ErrPlanDrift", err)
	}
	if !strings.Contains(err.Error(), "below k") {
		t.Errorf("drift error lacks bin context: %v", err)
	}

	// Under §5.1 boundary permutation the seamlessness guarantee is the
	// relaxed one (ApplyContext publishes below-K permuted bins the same
	// way), so the identical batch must not dead-end the incremental
	// path.
	permissive := doctored
	permissive.BoundaryPermutation = true
	if _, err := fw.AppendContext(context.Background(), delta, &permissive, key); err != nil {
		t.Fatalf("thin new bin under boundary permutation: %v, want success", err)
	}
}

// TestZeroSelectionKeepsBoundaryOff: an apply that selects no tuple
// embeds nothing, so it has taken no §5.1 decision and must not record
// one — otherwise every later append under the plan would accept thin
// new bins.
func TestZeroSelectionKeepsBoundaryOff(t *testing.T) {
	all, err := datagen.Generate(datagen.Config{Rows: 1525, Seed: 77, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := all.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(1500, 1525)
	if err != nil {
		t.Fatal(err)
	}
	fw := testFramework(t)
	key := crypt.NewWatermarkKeyFromSecret("append owner", 1e12)
	prot, err := fw.ProtectContext(context.Background(), base, key)
	if err != nil {
		t.Fatal(err)
	}
	if prot.Embed.TuplesSelected != 0 {
		t.Fatalf("η=1e12 selected %d tuples; the case under test selects none", prot.Embed.TuplesSelected)
	}
	if prot.Plan.BoundaryPermutation {
		t.Fatal("an apply that selected no tuple recorded §5.1 boundary permutation")
	}
	app, err := fw.AppendContext(context.Background(), delta, &prot.Plan, key)
	if err != nil {
		t.Fatal(err)
	}
	doctored := withoutThinBin(t, prot.Plan, app.Table)
	if _, err := fw.AppendContext(context.Background(), delta, &doctored, key); !errors.Is(err, ErrPlanDrift) {
		t.Fatalf("thin new bin after a zero-selection apply: %v, want ErrPlanDrift", err)
	}
}

// withoutThinBin returns plan with one bin of the marked delta that
// holds fewer than k rows dropped from its published record.
func withoutThinBin(t *testing.T, plan Plan, marked *relation.Table) Plan {
	t.Helper()
	deltaBins, err := anonymity.Bins(marked, marked.Schema().QuasiColumns())
	if err != nil {
		t.Fatal(err)
	}
	thinBin := ""
	for _, bin := range sortedKeys(deltaBins) {
		if deltaBins[bin] < plan.K {
			thinBin = bin
			break
		}
	}
	if thinBin == "" {
		t.Fatal("every delta bin holds >= k rows; enlarge the delta to find a thin one")
	}
	doctored := plan
	doctored.Bins = make(map[string]int, len(plan.Bins))
	for bin, n := range plan.Bins {
		if bin != thinBin {
			doctored.Bins[bin] = n
		}
	}
	return doctored
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestAppendSchemaMismatch pins the quasi-column guard: a delta whose
// schema re-classifies (or reorders) a quasi column must be refused
// with ErrBadSchema — generalization would silently skip the column and
// the bin keys would stop matching the plan's record.
func TestAppendSchemaMismatch(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 2500, 50)
	plan := prot.Plan

	// Demote one quasi column to "other".
	cols := columnsOf(delta.Schema())
	for i := range cols {
		if cols[i].Name == ontology.ColDoctor {
			cols[i].Kind = relation.Other
		}
	}
	demoted, err := relation.NewSchema(cols)
	if err != nil {
		t.Fatal(err)
	}
	bad := relation.NewTable(demoted)
	for i := 0; i < delta.NumRows(); i++ {
		if err := bad.AppendRow(delta.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.AppendContext(context.Background(), bad, &plan, key); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("demoted quasi column: %v, want ErrBadSchema", err)
	}

	// Reorder two quasi columns.
	cols = columnsOf(delta.Schema())
	qi := make([]int, 0, len(cols))
	for i, c := range cols {
		if c.Kind.IsQuasi() {
			qi = append(qi, i)
		}
	}
	cols[qi[0]], cols[qi[1]] = cols[qi[1]], cols[qi[0]]
	swapped, err := relation.NewSchema(cols)
	if err != nil {
		t.Fatal(err)
	}
	bad = relation.NewTable(swapped)
	row := make([]string, len(cols))
	for i := 0; i < delta.NumRows(); i++ {
		src := delta.Row(i)
		copy(row, src)
		row[qi[0]], row[qi[1]] = src[qi[1]], src[qi[0]]
		if err := bad.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.AppendContext(context.Background(), bad, &plan, key); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("reordered quasi columns: %v, want ErrBadSchema", err)
	}
}

func TestAppendRequiresAppliedPlan(t *testing.T) {
	fw, _, delta, key := appendFixture(t, 2500, 100)

	// A pre-apply plan (PlanContext output) has no published bin record.
	fresh, err := fw.PlanContext(context.Background(), delta.Clone(), key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.AppendContext(context.Background(), delta, fresh, key); !errors.Is(err, ErrBadProvenance) {
		t.Fatalf("append under unapplied plan: %v, want ErrBadProvenance", err)
	}
	if _, err := fw.AppendContext(context.Background(), delta, nil, key); !errors.Is(err, ErrBadProvenance) {
		t.Fatalf("append under nil plan: %v, want ErrBadProvenance", err)
	}
}

// columnsOf copies a schema's columns, for tests that build an edited
// schema from them.
func columnsOf(s *relation.Schema) []relation.Column {
	cols := make([]relation.Column, s.NumColumns())
	for i := range cols {
		cols[i] = s.Column(i)
	}
	return cols
}
