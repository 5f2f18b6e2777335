package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/crypt"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// tableCSV renders a table exactly as the streaming writers do.
func tableCSV(t *testing.T, tbl *relation.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameOutcome requires an in-memory write's outcome to equal the stream
// form's, field by field over the whole Streamed record but for the
// segment count, which follows the chunk size; and its Provenance to be
// its effective plan's.
func sameOutcome(t *testing.T, what string, mem *Protected, stream Streamed) {
	t.Helper()
	if !reflect.DeepEqual(mem.Provenance, mem.Plan.Provenance) {
		t.Errorf("%s: Protected.Provenance differs from Protected.Plan.Provenance", what)
	}
	want := mem.Streamed
	want.Segments, stream.Segments = 0, 0
	g, w := reflect.ValueOf(stream), reflect.ValueOf(want)
	for i := range g.NumField() {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s diverged\n  stream: %+v\n  memory: %+v", what, g.Type().Field(i).Name,
				g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// TestApplyStreamMatchesApply pins the tentpole guarantee: the streamed
// apply emits CSV byte-identical to the in-memory ApplyContext's table,
// for every chunk size and worker count, and returns the same effective
// outcome.
func TestApplyStreamMatchesApply(t *testing.T) {
	tbl := testData(t, 4000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 2, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fw.PlanContext(context.Background(), tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fw.ApplyContext(context.Background(), tbl, plan, key)
		if err != nil {
			t.Fatal(err)
		}
		want := tableCSV(t, p.Table)
		for _, chunk := range []int{1, 7, 512, 4000, 9000} {
			var got bytes.Buffer
			res, err := fw.ApplyStream(context.Background(), tbl.Segments(chunk), plan, key, &got)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("workers=%d chunk=%d: streamed CSV differs from in-memory apply", workers, chunk)
			}
			if res.Rows != p.Table.NumRows() {
				t.Fatalf("rows = %d, want %d", res.Rows, p.Table.NumRows())
			}
			sameOutcome(t, fmt.Sprintf("workers=%d chunk=%d", workers, chunk), p, *res)
		}
	}
}

// TestApplyStreamFromCSV drives the full streaming data plane: CSV in
// (SegmentReader), CSV out, no materialized table — and the output
// still matches the in-memory path.
func TestApplyStreamFromCSV(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 3000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fw.ApplyContext(context.Background(), tbl, plan, key)
	if err != nil {
		t.Fatal(err)
	}
	want := tableCSV(t, p.Table)

	input := tableCSV(t, tbl)
	sr, err := relation.NewSegmentReader(bytes.NewReader(input), tbl.Schema(), 256)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := fw.ApplyStream(context.Background(), sr, plan, key, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("CSV-to-CSV stream differs from in-memory apply")
	}
}

// TestAppendStreamMatchesAppend pins the append twin: same emitted CSV
// and the same outcome — advanced plan, statistics, thin-bin verdict —
// as AppendContext.
func TestAppendStreamMatchesAppend(t *testing.T) {
	all := testData(t, 5000)
	base, err := all.Slice(0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(4000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 2, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := fw.ProtectContext(context.Background(), base, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prot.Provenance, prot.Plan.Provenance) {
			t.Fatal("Protect: Protected.Provenance differs from Protected.Plan.Provenance")
		}
		app, err := fw.AppendContext(context.Background(), delta, &prot.Plan, key)
		if err != nil {
			t.Fatal(err)
		}
		want := tableCSV(t, app.Table)
		for _, chunk := range []int{64, 333, 1000} {
			var got bytes.Buffer
			res, err := fw.AppendStream(context.Background(), delta.Segments(chunk), &prot.Plan, key, &got)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("workers=%d chunk=%d: streamed CSV differs from in-memory append", workers, chunk)
			}
			sameOutcome(t, fmt.Sprintf("workers=%d chunk=%d", workers, chunk), app, *res)
		}
	}
}

// TestAppendStreamPlanDrift checks the deferred end-of-stream verdict:
// a batch that would publish a thin new bin fails with ErrPlanDrift and
// the exact verdict text AppendContext issues — even when the thin
// bin's rows were spread across segments.
func TestAppendStreamPlanDrift(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 4000, 25)
	plan := prot.Plan
	app, err := fw.AppendContext(context.Background(), delta, &plan, key)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one thin delta bin from the published record, so the batch
	// appears to open a fresh, under-populated value combination.
	deltaBins, err := anonymity.Bins(app.Table, delta.Schema().QuasiColumns())
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
	_, wantErr := fw.AppendContext(context.Background(), delta, &doctored, key)
	if !errors.Is(wantErr, ErrPlanDrift) {
		t.Fatalf("in-memory append: %v, want ErrPlanDrift", wantErr)
	}
	var got bytes.Buffer
	_, err = fw.AppendStream(context.Background(), delta.Segments(97), &doctored, key, &got)
	if !errors.Is(err, ErrPlanDrift) {
		t.Fatalf("streamed append: %v, want ErrPlanDrift", err)
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("verdict text diverged:\n  stream: %v\n  memory: %v", err, wantErr)
	}
}

// TestApplyStreamValidation covers the cheap up-front failures.
func TestApplyStreamValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 100)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), nil, key, io.Discard); !errors.Is(err, ErrBadProvenance) {
		t.Fatalf("nil plan: %v", err)
	}
	if _, err := fw.ApplyStream(context.Background(), nil, nil, key, io.Discard); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil source: %v", err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, crypt.WatermarkKey{}, io.Discard); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := fw.AppendStream(context.Background(), tbl.Segments(0), plan, key, io.Discard); !errors.Is(err, ErrBadProvenance) {
		t.Fatalf("append under unapplied plan: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.ApplyStream(ctx, tbl.Segments(0), plan, key, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}

// TestConfigChunkValidation pins the streaming segment-size knob:
// 0 defaults, explicit values pass through, below-1 is ErrBadConfig.
func TestConfigChunkValidation(t *testing.T) {
	fw, err := New(ontology.Trees(), Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Config().Chunk; got != relation.DefaultChunk {
		t.Errorf("defaulted Chunk = %d, want %d", got, relation.DefaultChunk)
	}
	fw, err = New(ontology.Trees(), Config{K: 5, Chunk: 123})
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Config().Chunk; got != 123 {
		t.Errorf("Chunk = %d, want 123", got)
	}
	_, err = New(ontology.Trees(), Config{K: 5, Chunk: -1})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("Chunk=-1: err = %v, want ErrBadConfig", err)
	}
	if err != nil && !strings.Contains(err.Error(), "Chunk") {
		t.Errorf("error does not name Chunk: %v", err)
	}
}
