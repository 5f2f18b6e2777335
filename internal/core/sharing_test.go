package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/crypt"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// TestFingerprintSharesTransformAndSelection counts the sharing that
// makes the fingerprint fan-out cheap: per segment, one transform per
// distinct encryption key and one Equation (5) selection per distinct
// (Enc, K1, η), however many recipients share them.
func TestFingerprintSharesTransformAndSelection(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 2000)
	fleet := func(n int) []Recipient {
		recs := make([]Recipient, n)
		for i := range recs {
			id := fmt.Sprintf("hospital-%02d", i)
			recs[i] = Recipient{ID: id, Key: crypt.RecipientWatermarkKey(tracebackSecret, id, 20)}
		}
		return recs
	}
	mixed := fleet(16)
	plan, err := fw.PlanContext(context.Background(), tbl, mixed[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	// Two recipients with a key of their own (own Enc, K1 and η) and two
	// that share the fleet's Enc and K1 under another η.
	mixed[3].Key = crypt.NewWatermarkKeyFromSecret("standalone 3", 20)
	mixed[9].Key = crypt.NewWatermarkKeyFromSecret("standalone 9", 20)
	mixed[5].Key = crypt.RecipientWatermarkKey(tracebackSecret, mixed[5].ID, 7)
	mixed[12].Key = crypt.RecipientWatermarkKey(tracebackSecret, mixed[12].ID, 7)
	for _, tc := range []struct {
		name                   string
		recipients             []Recipient
		transforms, selections int // per segment
	}{
		{"one recipient", fleet(1), 1, 1},
		{"sixteen recipient keys", fleet(16), 1, 1},
		{"mixed keys", mixed, 3, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs := make([]output, len(tc.recipients))
			for i, r := range tc.recipients {
				rp, err := RecipientPlan(plan, r.ID)
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = output{plan: rp, key: r.Key, recipient: r.ID, sink: discard}
			}
			p, err := fw.write(context.Background(), tbl.Segments(500), outs, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.segments != 4 {
				t.Fatalf("segments = %d, want 4", p.segments)
			}
			if got, want := p.transforms, tc.transforms*p.segments; got != want {
				t.Errorf("transforms = %d, want %d (%d per segment)", got, want, tc.transforms)
			}
			if got, want := p.selections, tc.selections*p.segments; got != want {
				t.Errorf("selections = %d, want %d (%d per segment)", got, want, tc.selections)
			}
		})
	}
}

// TestAppendNeedsNoSearch pins what makes an append cheap: it runs the
// write loop under the retained plan — one transform and one selection
// per segment — and never the binning search. A framework whose own
// search cannot bin the delta (k above its row count) appends it all the
// same, with the bytes of the framework that planned the base.
func TestAppendNeedsNoSearch(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 3000, 600)
	want, err := fw.AppendContext(context.Background(), delta, &prot.Plan, key)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := New(ontology.Trees(), Config{K: delta.NumRows() + 1, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.PlanContext(context.Background(), delta, key); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("planning the delta at k=%d: err = %v, want ErrUnsatisfiable", delta.NumRows()+1, err)
	}
	got, err := strict.AppendContext(context.Background(), delta, &prot.Plan, key)
	if err != nil {
		t.Fatalf("append under the retained plan: %v", err)
	}
	if !bytes.Equal(tableCSV(t, got.Table), tableCSV(t, want.Table)) {
		t.Fatal("append bytes depend on the framework's own search settings")
	}

	p, err := fw.write(context.Background(), delta.Segments(200), []output{{plan: &prot.Plan, key: key, sink: discard}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.segments != 3 || p.transforms != 3 || p.selections != 3 {
		t.Errorf("segments, transforms, selections = %d, %d, %d; want 3 each", p.segments, p.transforms, p.selections)
	}
}

// discard is a sink that drops its marked segments.
func discard(*relation.Table) error { return nil }
