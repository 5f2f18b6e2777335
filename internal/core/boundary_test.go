package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// leafMetrics pins every quasi column's maximal frontier to its leaves.
func leafMetrics(trees map[string]*dht.Tree, tbl *relation.Table) map[string]dht.GenSet {
	maxGens := make(map[string]dht.GenSet)
	for _, col := range tbl.Schema().QuasiColumns() {
		maxGens[col] = dht.LeafGenSet(trees[col])
	}
	return maxGens
}

// mergeFirstPair lifts one maximal node of g a level up, so it covers
// the sibling leaves below it.
func mergeFirstPair(t *testing.T, g dht.GenSet) dht.GenSet {
	t.Helper()
	m, err := g.MergeAt(g.MergeCandidates()[0])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNoHierarchy pins the §5.1 predicate: the hierarchical channel is
// empty exactly when every maximal node covers one ultimate node, in
// every column.
func TestNoHierarchy(t *testing.T) {
	tbl := testData(t, 2000)
	trees := ontology.Trees()
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	specsOf := func(cfg Config) map[string]watermark.ColumnSpec {
		t.Helper()
		fw, err := New(trees, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fw.PlanContext(context.Background(), tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := fw.SpecsFromProvenance(plan.Provenance)
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
	leaves := leafMetrics(trees, tbl)
	oneMerged := leafMetrics(trees, tbl)
	oneMerged["age"] = mergeFirstPair(t, oneMerged["age"])
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"usage metrics at the leaves", Config{K: 1, MaxGens: leaves}, true},
		{"default metrics", Config{K: 15, AutoEpsilon: true}, false},
		{"one maximal node over two ultimate nodes", Config{K: 1, MaxGens: oneMerged}, false},
	} {
		if got := noHierarchy(specsOf(tc.cfg)); got != tc.want {
			t.Errorf("%s: noHierarchy = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestProtectBoundaryFallback(t *testing.T) {
	// Usage metrics at the leaves pin every maximal node to a leaf, so
	// every ultimate frontier node is its own maximal node and the
	// hierarchical channel is empty. Every apply form decides the §5.1
	// fallback from the frontiers before the first row, records it in
	// the effective plan, and roundtrips detection; the streams write
	// the in-memory bytes.
	tbl := testData(t, 5000)
	trees := ontology.Trees()
	fw, err := New(trees, Config{K: 1, MaxGens: leafMetrics(trees, tbl)})
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("boundary-owner", 30)
	p, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Plan.BoundaryPermutation || !p.Provenance.BoundaryPermutation {
		t.Fatal("effective plan does not record the boundary-permutation fallback")
	}
	if p.Embed.BitsEmbedded == 0 {
		t.Fatal("no bits embedded even after fallback")
	}
	det, err := fw.DetectContext(context.Background(), p.Table, p.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Errorf("boundary-mode detection failed: loss %v", det.MarkLoss)
	}

	recipients := []Recipient{
		{ID: "a", Key: crypt.RecipientWatermarkKey("boundary-owner", "a", 30)},
		{ID: "b", Key: crypt.RecipientWatermarkKey("boundary-owner", "b", 30)},
	}
	copies, err := fw.FingerprintContext(context.Background(), tbl, recipients)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range copies {
		if !c.Protected.Plan.BoundaryPermutation {
			t.Errorf("recipient %s: copy does not record the boundary-permutation fallback", c.RecipientID)
		}
	}

	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := fw.ApplyStream(context.Background(), tbl.Segments(1000), plan, key, &buf)
	if err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), tableCSV(t, p.Table)) {
		t.Error("ApplyStream CSV differs from the in-memory Protect table")
	}
	if !st.Plan.BoundaryPermutation {
		t.Error("ApplyStream's effective plan does not record the boundary-permutation fallback")
	}
	bufs := []*bytes.Buffer{{}, {}}
	streamed, err := fw.FingerprintStream(context.Background(), tbl, recipients, []io.Writer{bufs[0], bufs[1]})
	if err != nil {
		t.Fatalf("FingerprintStream: %v", err)
	}
	for i, c := range copies {
		if !bytes.Equal(bufs[i].Bytes(), tableCSV(t, c.Protected.Table)) {
			t.Errorf("recipient %s: FingerprintStream CSV differs from the in-memory Fingerprint copy", c.RecipientID)
		}
		if !streamed[i].Protected.Plan.BoundaryPermutation {
			t.Errorf("recipient %s: streamed copy does not record the boundary-permutation fallback", c.RecipientID)
		}
	}
}

// TestNonStructuralZeroBandwidth pins the degenerate case the §5.1
// predicate leaves out. One age node over two leaves keeps the
// hierarchical channel open, but this 40-row table selects no tuple with
// an age under it (seed, size and η found by search), so the mark finds
// no bandwidth. Every apply form reports the same ErrUnsatisfiable; none
// retries with boundary permutation.
func TestNonStructuralZeroBandwidth(t *testing.T) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 40, Seed: 3, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	trees := ontology.Trees()
	maxGens := leafMetrics(trees, tbl)
	maxGens["age"] = mergeFirstPair(t, maxGens["age"])
	fw, err := New(trees, Config{K: 1, MaxGens: maxGens})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := crypt.NewWatermarkKeyFromSecret("tiny-owner", 10)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := fw.SpecsFromProvenance(plan.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	if noHierarchy(specs) {
		t.Fatal("fixture is structural; the case under test is the non-structural one")
	}
	recipients := []Recipient{
		{ID: "a", Key: crypt.RecipientWatermarkKey("tiny-owner", "a", 10)},
		{ID: "b", Key: crypt.RecipientWatermarkKey("tiny-owner", "b", 10)},
	}
	_, applyErr := fw.ApplyContext(ctx, tbl, plan, key)
	_, applyStreamErr := fw.ApplyStream(ctx, tbl.Segments(16), plan, key, io.Discard)
	_, fpErr := fw.FingerprintContext(ctx, tbl, recipients)
	_, fpStreamErr := fw.FingerprintStream(ctx, tbl, recipients, []io.Writer{io.Discard, io.Discard})
	for name, err := range map[string]error{
		"ApplyContext":       applyErr,
		"ApplyStream":        applyStreamErr,
		"FingerprintContext": fpErr,
		"FingerprintStream":  fpStreamErr,
	} {
		if !errors.Is(err, ErrUnsatisfiable) || !strings.Contains(err.Error(), "no watermark bandwidth") {
			t.Errorf("%s: err = %v, want the no-bandwidth ErrUnsatisfiable", name, err)
		}
	}
}
