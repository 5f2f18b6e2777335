package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// alteredLeak clones a protected copy and runs a 30% alteration attack
// over it, so the streamed detectors exercise the skip paths (values out
// of the domain, above the metrics) and not just the clean read.
func alteredLeak(t *testing.T, fw *Framework, prot *Protected) *relation.Table {
	t.Helper()
	leak := prot.Table.Clone()
	specs, err := fw.SpecsFromProvenance(prot.Provenance)
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
	return leak
}

// TestDetectStreamMatchesDetect pins the read-side tentpole guarantee:
// detection over a segment stream is bit-identical — mark, confidences,
// statistics, loss and verdict — to DetectContext over the materialized
// suspect, for every chunk size and worker count, on both a clean and
// an attacked suspect.
func TestDetectStreamMatchesDetect(t *testing.T) {
	tbl := testData(t, 2000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 2, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := fw.ProtectContext(context.Background(), tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		for name, suspect := range map[string]*relation.Table{
			"clean":    prot.Table,
			"attacked": alteredLeak(t, fw, prot),
		} {
			want, err := fw.DetectContext(context.Background(), suspect, prot.Provenance, key)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 512, 4000} {
				got, err := fw.DetectStream(context.Background(), suspect.Segments(chunk), prot.Provenance, key)
				if err != nil {
					t.Fatalf("%s workers=%d chunk=%d: %v", name, workers, chunk, err)
				}
				if !reflect.DeepEqual(got.Detection, *want) {
					t.Fatalf("%s workers=%d chunk=%d: streamed detection diverged\n  stream: %+v\n  memory: %+v",
						name, workers, chunk, got.Detection, *want)
				}
				if got.Rows != suspect.NumRows() {
					t.Fatalf("rows = %d, want %d", got.Rows, suspect.NumRows())
				}
			}
		}
	}
}

// TestTracebackStreamMatchesTraceback pins the traceback twin over a
// streamed, attacked suspect: the ranked report — verdicts, match
// ratios, confidences, culprit — is bit-identical to TracebackContext
// over the materialized leak, for every chunk size and worker count,
// and still names the leaking recipient.
func TestTracebackStreamMatchesTraceback(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		fw, results := fingerprintFixture(t, workers, "hospital-a", "hospital-b", "hospital-c")
		cands := candidatesOf(results)
		leak := alteredLeak(t, fw, results[1].Protected)
		want, err := fw.TracebackContext(context.Background(), leak, cands)
		if err != nil {
			t.Fatal(err)
		}
		if want.Culprit != "hospital-b" {
			t.Fatalf("in-memory culprit = %q, want hospital-b", want.Culprit)
		}
		for _, chunk := range []int{1, 512, 4000} {
			got, err := fw.TracebackStream(context.Background(), leak.Segments(chunk), cands)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !reflect.DeepEqual(got.Traceback, *want) {
				t.Fatalf("workers=%d chunk=%d: streamed traceback diverged\n  stream: %+v\n  memory: %+v",
					workers, chunk, got.Traceback, *want)
			}
			if got.Rows != leak.NumRows() {
				t.Fatalf("rows = %d, want %d", got.Rows, leak.NumRows())
			}
		}
	}
}

// TestTracebackStreamMixedPlanGroups exercises the per-segment shared
// state across distinct frontier groups: candidates from two unrelated
// plans, streamed verdicts equal to the in-memory ones.
func TestTracebackStreamMixedPlanGroups(t *testing.T) {
	fw, results := fingerprintFixture(t, 0, "h-a", "h-b")
	cands := candidatesOf(results)
	other := testData(t, 900)
	otherKey := crypt.RecipientWatermarkKey("another secret", "h-x", 15)
	prot, err := fw.ProtectContext(context.Background(), other, otherKey)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, Candidate{ID: "h-x", Provenance: prot.Provenance, Key: otherKey})

	leak := results[0].Protected.Table
	want, err := fw.TracebackContext(context.Background(), leak, cands)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fw.TracebackStream(context.Background(), leak.Segments(300), cands)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Traceback, *want) {
		t.Fatalf("mixed-group streamed traceback diverged\n  stream: %+v\n  memory: %+v", got.Traceback, *want)
	}
	if got.Culprit != "h-a" {
		t.Errorf("culprit = %q, want h-a", got.Culprit)
	}
}

// TestFingerprintStreamMatchesFingerprint pins the fan-out guarantee:
// every recipient's streamed CSV is byte-identical to WriteCSV of the
// in-memory FingerprintContext copy, and the per-copy outcomes agree
// whole — for several segment sizes.
func TestFingerprintStreamMatchesFingerprint(t *testing.T) {
	tbl := testData(t, 1500)
	ids := []string{"hospital-a", "hospital-b", "hospital-c"}
	recipients := make([]Recipient, len(ids))
	for i, id := range ids {
		recipients[i] = Recipient{ID: id, Key: crypt.RecipientWatermarkKey(tracebackSecret, id, 20)}
	}
	for _, chunk := range []int{1, 512, 4000} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fw.FingerprintContext(context.Background(), tbl, recipients)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]io.Writer, len(recipients))
		bufs := make([]*bytes.Buffer, len(recipients))
		for i := range outs {
			bufs[i] = &bytes.Buffer{}
			outs[i] = bufs[i]
		}
		got, err := fw.FingerprintStream(context.Background(), tbl, recipients, outs)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: %d streamed results, want %d", chunk, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.RecipientID != w.RecipientID || g.KeyFingerprint != w.KeyFingerprint {
				t.Fatalf("chunk=%d recipient %d: identity mismatch", chunk, i)
			}
			if !bytes.Equal(bufs[i].Bytes(), tableCSV(t, w.Protected.Table)) {
				t.Fatalf("chunk=%d recipient %s: streamed CSV differs from in-memory copy", chunk, w.RecipientID)
			}
			if g.Protected.Table != nil {
				t.Fatalf("chunk=%d recipient %s: streamed result carries a table", chunk, w.RecipientID)
			}
			if !reflect.DeepEqual(g.Protected.Provenance, w.Protected.Provenance) {
				t.Fatalf("chunk=%d recipient %s: provenance diverged", chunk, w.RecipientID)
			}
			sameOutcome(t, fmt.Sprintf("chunk=%d recipient %s", chunk, w.RecipientID), w.Protected, g.Protected.Streamed)
		}
	}
}

// TestFingerprintMatchesPerRecipientApply pins the shared-transform
// guarantee with golden hashes: every FingerprintContext copy must be
// byte-identical (SHA-256 over the CSV) to a standalone ApplyContext
// under the same recipient plan and key — splitting the transform out
// of the per-recipient loop may not change a single output byte.
func TestFingerprintMatchesPerRecipientApply(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 1500)
	ids := []string{"hospital-a", "hospital-b", "hospital-c", "hospital-d"}
	recipients := make([]Recipient, len(ids))
	for i, id := range ids {
		recipients[i] = Recipient{ID: id, Key: crypt.RecipientWatermarkKey(tracebackSecret, id, 20)}
	}
	results, err := fw.FingerprintContext(context.Background(), tbl, recipients)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, recipients[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recipients {
		rp, err := RecipientPlan(plan, r.ID)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fw.ApplyContext(context.Background(), tbl, rp, r.Key)
		if err != nil {
			t.Fatal(err)
		}
		want := sha256.Sum256(tableCSV(t, p.Table))
		got := sha256.Sum256(tableCSV(t, results[i].Protected.Table))
		if got != want {
			t.Errorf("recipient %s: fingerprint copy hash %x != independent apply hash %x", r.ID, got, want)
		}
		if !reflect.DeepEqual(results[i].Protected.Plan, p.Plan) {
			t.Errorf("recipient %s: effective plans diverged", r.ID)
		}
	}
}

// TestReadStreamValidation covers the cheap up-front failures of the
// streamed read plane and the fingerprint fan-out.
func TestReadStreamValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 200)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.DetectStream(context.Background(), nil, prot.Provenance, key); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil source: %v", err)
	}
	if _, err := fw.DetectStream(context.Background(), prot.Table.Segments(0), prot.Provenance, crypt.WatermarkKey{}); !errors.Is(err, ErrBadKey) {
		t.Errorf("empty key: %v", err)
	}
	badProv := prot.Provenance
	badProv.IdentCol = "no-such-column"
	if _, err := fw.DetectStream(context.Background(), prot.Table.Segments(0), badProv, key); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad ident column: %v", err)
	}
	// A suspect missing a watermarked column is a schema mismatch on
	// every read entry point, not a bare relation error.
	var kept []relation.Column
	for _, col := range columnsOf(prot.Table.Schema()) {
		if col.Name != "age" {
			kept = append(kept, col)
		}
	}
	noAge, err := prot.Table.Project(relation.MustSchema(kept...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.DetectStream(context.Background(), noAge.Segments(0), prot.Provenance, key); !errors.Is(err, ErrBadSchema) {
		t.Errorf("detect stream, suspect without a watermarked column: %v", err)
	}
	if _, err := fw.DetectContext(context.Background(), noAge, prot.Provenance, key); !errors.Is(err, ErrBadSchema) {
		t.Errorf("detect, suspect without a watermarked column: %v", err)
	}
	cand := Candidate{ID: "a", Provenance: prot.Provenance, Key: key}
	if _, err := fw.TracebackStream(context.Background(), noAge.Segments(0), []Candidate{cand}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("traceback stream, suspect without a watermarked column: %v", err)
	}
	if _, err := fw.TracebackStream(context.Background(), nil, []Candidate{cand}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil traceback source: %v", err)
	}
	if _, err := fw.TracebackStream(context.Background(), prot.Table.Segments(0), nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no candidates: %v", err)
	}
	if _, err := fw.TracebackStream(context.Background(), prot.Table.Segments(0), []Candidate{{ID: "a"}}); !errors.Is(err, ErrBadKey) {
		t.Errorf("invalid candidate key: %v", err)
	}
	rec := []Recipient{{ID: "a", Key: key}}
	if _, err := fw.FingerprintStream(context.Background(), tbl, rec, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing writers: %v", err)
	}
	if _, err := fw.FingerprintStream(context.Background(), tbl, rec, []io.Writer{nil}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil writer: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.DetectStream(ctx, prot.Table.Segments(0), prot.Provenance, key); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled detect: %v", err)
	}
	if _, err := fw.TracebackStream(ctx, prot.Table.Segments(0), []Candidate{cand}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled traceback: %v", err)
	}
	if _, err := fw.FingerprintStream(ctx, tbl, rec, []io.Writer{io.Discard}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled fingerprint: %v", err)
	}
}

// cutSegments yields tbl sliced at arbitrary caller-chosen boundaries —
// the adversarial Segments source of FuzzDetectStreamSegments.
type cutSegments struct {
	tbl  *relation.Table
	cuts []int // strictly ascending, last == NumRows
	pos  int
	at   int
}

func (s *cutSegments) Schema() *relation.Schema { return s.tbl.Schema() }

func (s *cutSegments) Next() (*relation.Table, error) {
	if s.pos >= len(s.cuts) {
		return nil, io.EOF
	}
	lo, hi := s.at, s.cuts[s.pos]
	s.pos++
	s.at = hi
	return s.tbl.Slice(lo, hi)
}

// FuzzDetectStreamSegments differentially fuzzes the streamed detector
// against the in-memory one: each fuzz input encodes an adversarial
// sequence of segment lengths, and the streamed votes must reproduce
// the in-memory detection bit for bit no matter where the suspect is
// cut.
func FuzzDetectStreamSegments(f *testing.F) {
	fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: 3})
	if err != nil {
		f.Fatal(err)
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 600, Seed: 77, Correlate: true, ZipfS: 1.2})
	if err != nil {
		f.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		f.Fatal(err)
	}
	want, err := fw.DetectContext(context.Background(), prot.Table, prot.Provenance, key)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{1})
	f.Add([]byte{0, 255, 3})
	f.Add([]byte{7, 7, 7, 7, 200})
	f.Fuzz(func(t *testing.T, lens []byte) {
		n := prot.Table.NumRows()
		var cuts []int
		at := 0
		for _, b := range lens {
			if at >= n {
				break
			}
			step := 1 + int(b)
			if at+step > n {
				step = n - at
			}
			at += step
			cuts = append(cuts, at)
		}
		if at < n {
			cuts = append(cuts, n)
		}
		got, err := fw.DetectStream(context.Background(), &cutSegments{tbl: prot.Table, cuts: cuts}, prot.Provenance, key)
		if err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
		if !reflect.DeepEqual(got.Detection, *want) {
			t.Fatalf("cuts %v: streamed detection diverged from in-memory", cuts)
		}
	})
}
