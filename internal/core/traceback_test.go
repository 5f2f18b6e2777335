package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/crypt"
	"repro/internal/ontology"
)

const tracebackSecret = "master outsourcing secret"

func fingerprintFixture(t *testing.T, workers int, ids ...string) (*Framework, []FingerprintResult) {
	t.Helper()
	fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testData(t, 1500)
	recipients := make([]Recipient, len(ids))
	for i, id := range ids {
		recipients[i] = Recipient{ID: id, Key: crypt.RecipientWatermarkKey(tracebackSecret, id, 20)}
	}
	results, err := fw.FingerprintContext(context.Background(), tbl, recipients)
	if err != nil {
		t.Fatal(err)
	}
	return fw, results
}

func candidatesOf(results []FingerprintResult) []Candidate {
	cands := make([]Candidate, len(results))
	for i, r := range results {
		cands[i] = Candidate{
			ID:         r.RecipientID,
			Provenance: r.Protected.Provenance,
			Key:        crypt.RecipientWatermarkKey(tracebackSecret, r.RecipientID, 20),
		}
	}
	return cands
}

func TestFingerprintDistinctCopiesSharedFrontiers(t *testing.T) {
	_, results := fingerprintFixture(t, 0, "hospital-a", "hospital-b", "hospital-c")
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	marks := map[string]bool{}
	csvs := map[string]bool{}
	for _, r := range results {
		if r.Protected.Embed.BitsEmbedded == 0 {
			t.Fatalf("recipient %s: no bits embedded", r.RecipientID)
		}
		marks[r.Protected.Provenance.Mark] = true
		var sb strings.Builder
		if err := r.Protected.Table.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		csvs[sb.String()] = true
		// All copies share the planned frontiers and bin record baseline.
		if !reflect.DeepEqual(r.Protected.Provenance.Columns, results[0].Protected.Provenance.Columns) {
			t.Errorf("recipient %s: frontiers differ from recipient %s", r.RecipientID, results[0].RecipientID)
		}
		if r.Protected.Provenance.V != results[0].Protected.Provenance.V {
			t.Errorf("recipient %s: statistic differs", r.RecipientID)
		}
	}
	if len(marks) != 3 {
		t.Errorf("want 3 distinct recipient marks, got %d", len(marks))
	}
	if len(csvs) != 3 {
		t.Errorf("want 3 distinct marked tables, got %d", len(csvs))
	}
}

func TestFingerprintValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 200)
	key := crypt.RecipientWatermarkKey(tracebackSecret, "a", 10)
	if _, err := fw.FingerprintContext(context.Background(), tbl, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no recipients: got %v", err)
	}
	if _, err := fw.FingerprintContext(context.Background(), tbl, []Recipient{{ID: "", Key: key}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty ID: got %v", err)
	}
	dup := []Recipient{{ID: "a", Key: key}, {ID: "a", Key: key}}
	if _, err := fw.FingerprintContext(context.Background(), tbl, dup); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate ID: got %v", err)
	}
	if _, err := fw.FingerprintContext(context.Background(), tbl, []Recipient{{ID: "a"}}); !errors.Is(err, ErrBadKey) {
		t.Errorf("invalid key: got %v", err)
	}
}

func TestTracebackNamesTheLeaker(t *testing.T) {
	fw, results := fingerprintFixture(t, 0, "hospital-a", "hospital-b", "hospital-c")
	cands := candidatesOf(results)

	// Leak hospital-b's copy, with a 30% alteration attack on top.
	leak := results[1].Protected.Table.Clone()
	specs, err := fw.SpecsFromProvenance(results[1].Protected.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	pools := map[string][]string{}
	for col, spec := range specs {
		pools[col] = spec.UltiGen.Values()
	}
	if _, err := attack.AlterSubset(leak, pools, 0.3, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}

	tb, err := fw.TracebackContext(context.Background(), leak, cands)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Culprit != "hospital-b" {
		t.Fatalf("culprit = %q, want hospital-b (verdicts: %+v)", tb.Culprit, tb.Verdicts)
	}
	if tb.Matches != 1 {
		t.Errorf("matches = %d, want 1", tb.Matches)
	}
	if len(tb.Verdicts) != 3 || tb.Verdicts[0].RecipientID != "hospital-b" {
		t.Fatalf("verdicts not ranked with the leaker first: %+v", tb.Verdicts)
	}
	for _, v := range tb.Verdicts[1:] {
		if v.Match {
			t.Errorf("innocent recipient %s matched (loss %.3f)", v.RecipientID, v.MarkLoss)
		}
		if v.MatchRatio >= tb.Verdicts[0].MatchRatio {
			t.Errorf("innocent %s ranked at or above the leaker", v.RecipientID)
		}
	}
}

// TestTracebackMatchesIndependentDetect pins the sharing optimization:
// each traceback verdict must be bit-identical to an independent
// DetectContext run under the same provenance and key.
func TestTracebackMatchesIndependentDetect(t *testing.T) {
	fw, results := fingerprintFixture(t, 0, "hospital-a", "hospital-b")
	cands := candidatesOf(results)
	leak := results[0].Protected.Table

	tb, err := fw.TracebackContext(context.Background(), leak, cands)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]TracebackVerdict{}
	for _, v := range tb.Verdicts {
		byID[v.RecipientID] = v
	}
	for _, c := range cands {
		det, err := fw.DetectContext(context.Background(), leak, c.Provenance, c.Key)
		if err != nil {
			t.Fatal(err)
		}
		v := byID[c.ID]
		if v.Mark != det.Result.Mark.String() {
			t.Errorf("candidate %s: traceback mark %s != detect mark %s", c.ID, v.Mark, det.Result.Mark.String())
		}
		if v.MarkLoss != det.MarkLoss {
			t.Errorf("candidate %s: traceback loss %v != detect loss %v", c.ID, v.MarkLoss, det.MarkLoss)
		}
		if v.Match != det.Match {
			t.Errorf("candidate %s: traceback match %v != detect match %v", c.ID, v.Match, det.Match)
		}
		if v.VotesCast != det.Result.Stats.VotesCast {
			t.Errorf("candidate %s: votes %d != %d", c.ID, v.VotesCast, det.Result.Stats.VotesCast)
		}
	}
	if tb.Culprit != "hospital-a" {
		t.Errorf("culprit = %q, want hospital-a", tb.Culprit)
	}
}

// TestTracebackSelectionPerKey covers candidates that share one
// prepared suspect but not one selection: under the same provenance,
// keys with other (K1, η) pairs must each get their own Equation (5)
// selection, so every verdict still equals an independent detect.
func TestTracebackSelectionPerKey(t *testing.T) {
	fw, results := fingerprintFixture(t, 0, "hospital-a", "hospital-b")
	cands := candidatesOf(results)
	prov := results[1].Protected.Provenance
	cands = append(cands,
		Candidate{ID: "other-k1", Provenance: prov, Key: crypt.RecipientWatermarkKey("another secret", "hospital-b", 20)},
		Candidate{ID: "other-eta", Provenance: prov, Key: crypt.RecipientWatermarkKey(tracebackSecret, "hospital-b", 7)})
	leak := results[1].Protected.Table

	tb, err := fw.TracebackContext(context.Background(), leak, cands)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Candidate{}
	for _, c := range cands {
		byID[c.ID] = c
	}
	for _, v := range tb.Verdicts {
		c := byID[v.RecipientID]
		det, err := fw.DetectContext(context.Background(), leak, c.Provenance, c.Key)
		if err != nil {
			t.Fatal(err)
		}
		if v.Mark != det.Result.Mark.String() || v.VotesCast != det.Result.Stats.VotesCast {
			t.Errorf("candidate %s: traceback mark %s (%d votes) != detect mark %s (%d votes)",
				v.RecipientID, v.Mark, v.VotesCast, det.Result.Mark, det.Result.Stats.VotesCast)
		}
	}
	if tb.Culprit != "hospital-b" {
		t.Errorf("culprit = %q, want hospital-b", tb.Culprit)
	}
}

// TestTracebackWorkersDeterministic locks the ranked report across
// worker counts.
func TestTracebackWorkersDeterministic(t *testing.T) {
	var baseline *Traceback
	for _, workers := range []int{1, 2, 8} {
		fw, results := fingerprintFixture(t, workers, "h-a", "h-b", "h-c", "h-d")
		leak := results[2].Protected.Table
		tb, err := fw.TracebackContext(context.Background(), leak, candidatesOf(results))
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = tb
			if tb.Culprit != "h-c" {
				t.Fatalf("culprit = %q, want h-c", tb.Culprit)
			}
			continue
		}
		if !reflect.DeepEqual(tb, baseline) {
			t.Errorf("workers=%d: traceback report differs from workers=1", workers)
		}
	}
}

// TestTracebackOverAppendedUnion drives the PR 4 incremental path into
// traceback: a recipient's copy grows by an appended batch under its
// frozen plan, and traceback over the union still names that recipient.
func TestTracebackOverAppendedUnion(t *testing.T) {
	fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	all := testData(t, 1800)
	base, err := all.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(1500, 1800)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"clinic-a", "clinic-b", "clinic-c"}
	recipients := make([]Recipient, len(ids))
	for i, id := range ids {
		recipients[i] = Recipient{ID: id, Key: crypt.RecipientWatermarkKey(tracebackSecret, id, 20)}
	}
	results, err := fw.FingerprintContext(context.Background(), base, recipients)
	if err != nil {
		t.Fatal(err)
	}

	// clinic-b's copy ingests the delta under its own frozen plan.
	leakPlan := results[1].Protected.Plan
	app, err := fw.AppendContext(context.Background(), delta, &leakPlan, recipients[1].Key)
	if err != nil {
		t.Fatal(err)
	}
	union := results[1].Protected.Table.Clone()
	if err := union.AppendTable(app.Table); err != nil {
		t.Fatal(err)
	}

	tb, err := fw.TracebackContext(context.Background(), union, candidatesOf(results))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Culprit != "clinic-b" {
		t.Fatalf("culprit over the appended union = %q, want clinic-b (verdicts: %+v)", tb.Culprit, tb.Verdicts)
	}
	if tb.Verdicts[0].MarkLoss > 0.05 {
		t.Errorf("leaker loss over the union = %.3f, want near zero", tb.Verdicts[0].MarkLoss)
	}
}

func TestTracebackValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 200)
	key := crypt.RecipientWatermarkKey(tracebackSecret, "a", 10)
	if _, err := fw.TracebackContext(context.Background(), tbl, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no candidates: got %v", err)
	}
	if _, err := fw.TracebackContext(context.Background(), tbl, []Candidate{{ID: "", Key: key}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty ID: got %v", err)
	}
	dup := []Candidate{{ID: "a", Key: key}, {ID: "a", Key: key}}
	if _, err := fw.TracebackContext(context.Background(), tbl, dup); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate ID: got %v", err)
	}
	if _, err := fw.TracebackContext(context.Background(), tbl, []Candidate{{ID: "a"}}); !errors.Is(err, ErrBadKey) {
		t.Errorf("invalid key: got %v", err)
	}
}

func TestTracebackCancellation(t *testing.T) {
	fw, results := fingerprintFixture(t, 2, "h-a", "h-b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fw.TracebackContext(ctx, results[0].Protected.Table, candidatesOf(results))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled traceback: got %v", err)
	}
}

func TestRecipientPlanDerivation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 400)
	key := crypt.RecipientWatermarkKey(tracebackSecret, "a", 10)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	rpA, err := RecipientPlan(plan, "a")
	if err != nil {
		t.Fatal(err)
	}
	rpA2, err := RecipientPlan(plan, "a")
	if err != nil {
		t.Fatal(err)
	}
	rpB, err := RecipientPlan(plan, "b")
	if err != nil {
		t.Fatal(err)
	}
	if rpA.Mark != rpA2.Mark {
		t.Error("recipient plan derivation is not deterministic")
	}
	if rpA.Mark == rpB.Mark || rpA.Mark == plan.Mark {
		t.Error("recipient marks must be distinct from each other and from the owner mark")
	}
	if rpA.V != plan.V || len(rpA.Mark) != len(plan.Mark) {
		t.Error("recipient plan must keep the statistic and mark length")
	}
	if _, err := RecipientPlan(plan, ""); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty recipient ID: got %v", err)
	}
	if _, err := RecipientPlan(nil, "a"); !errors.Is(err, ErrBadProvenance) {
		t.Errorf("nil plan: got %v", err)
	}
}

// TestTracebackMixedPlanGroups exercises the grouping path: candidates
// whose provenance comes from different plans (different frontiers must
// not share verdict tables).
func TestTracebackMixedPlanGroups(t *testing.T) {
	fw, results := fingerprintFixture(t, 0, "h-a", "h-b")
	cands := candidatesOf(results)

	// A third candidate from an unrelated plan over different data.
	other := testData(t, 900)
	otherKey := crypt.RecipientWatermarkKey("another secret", "h-x", 15)
	prot, err := fw.ProtectContext(context.Background(), other, otherKey)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, Candidate{ID: "h-x", Provenance: prot.Provenance, Key: otherKey})

	leak := results[0].Protected.Table
	tb, err := fw.TracebackContext(context.Background(), leak, cands)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Culprit != "h-a" {
		t.Fatalf("culprit = %q, want h-a", tb.Culprit)
	}
	for _, v := range tb.Verdicts {
		if v.RecipientID == "h-x" && v.Match {
			t.Error("candidate from an unrelated plan matched the leak")
		}
	}
}
