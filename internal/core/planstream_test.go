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

// TestPlanStreamMatchesPlanContext pins the planner tentpole: the
// one-pass sketch planner emits a plan byte-identical (MarshalPlan) to
// PlanContext's over the materialized table, for every chunk size,
// worker count, suppression rule and the AutoEpsilon re-search — and
// applying either plan produces the same protected CSV.
func TestPlanStreamMatchesPlanContext(t *testing.T) {
	tbl := testData(t, 4000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 2, 8} {
		for _, aggressive := range []bool{false, true} {
			for _, auto := range []bool{false, true} {
				fw, err := New(ontology.Trees(), Config{
					K: 15, AutoEpsilon: auto, Aggressive: aggressive, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("workers=%d aggressive=%v auto=%v", workers, aggressive, auto)
				ref, err := fw.PlanContext(context.Background(), tbl, key)
				if err != nil {
					t.Fatalf("%s: PlanContext: %v", name, err)
				}
				want, err := MarshalPlan(ref)
				if err != nil {
					t.Fatal(err)
				}
				refApply, err := fw.ApplyContext(context.Background(), tbl, ref, key)
				if err != nil {
					t.Fatalf("%s: apply of context plan: %v", name, err)
				}
				wantCSV := tableCSV(t, refApply.Table)
				for _, chunk := range []int{1, 7, 512, 4000, 9000} {
					ps, err := fw.PlanStream(context.Background(), tbl.Segments(chunk), key)
					if err != nil {
						t.Fatalf("%s chunk=%d: PlanStream: %v", name, chunk, err)
					}
					got, err := MarshalPlan(ps.Plan)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s chunk=%d: streamed plan differs:\n got: %s\nwant: %s", name, chunk, got, want)
					}
					if ps.Rows != tbl.NumRows() {
						t.Fatalf("%s chunk=%d: rows = %d, want %d", name, chunk, ps.Rows, tbl.NumRows())
					}
					wantSegs := (tbl.NumRows() + chunk - 1) / chunk
					if chunk >= tbl.NumRows() {
						wantSegs = 1
					}
					if ps.Segments != wantSegs {
						t.Fatalf("%s chunk=%d: segments = %d, want %d", name, chunk, ps.Segments, wantSegs)
					}
					// The cold (rt-less) streamed plan must protect to the
					// same bytes as the context plan's warm fast path.
					if chunk == 512 {
						p, err := fw.ApplyContext(context.Background(), tbl, ps.Plan, key)
						if err != nil {
							t.Fatalf("%s: apply of streamed plan: %v", name, err)
						}
						if !bytes.Equal(tableCSV(t, p.Table), wantCSV) {
							t.Fatalf("%s: protected CSV differs between streamed and context plans", name)
						}
					}
				}
			}
		}
	}
}

// TestPlanStreamFromCSV plans straight from CSV ingest, no materialized
// table: SegmentReader in, plan out, identical to PlanContext.
func TestPlanStreamFromCSV(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 3000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	ref, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalPlan(ref)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := relation.NewSegmentReader(bytes.NewReader(tableCSV(t, tbl)), tbl.Schema(), 256)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := fw.PlanStream(context.Background(), sr, key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalPlan(ps.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CSV-streamed plan differs:\n got: %s\nwant: %s", got, want)
	}
	if ps.Rows != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", ps.Rows, tbl.NumRows())
	}
}

// errSegments yields one good segment, then a read error.
type errSegments struct {
	tbl  *relation.Table
	done bool
}

func (e *errSegments) Schema() *relation.Schema { return e.tbl.Schema() }

func (e *errSegments) Next() (*relation.Table, error) {
	if e.done {
		return nil, errors.New("disk on fire")
	}
	e.done = true
	return e.tbl, nil
}

// TestPlanStreamValidation covers the cheap up-front failures and the
// mid-stream read error.
func TestPlanStreamValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 100)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	if _, err := fw.PlanStream(context.Background(), nil, key); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil source: %v", err)
	}
	if _, err := fw.PlanStream(context.Background(), tbl.Segments(0), crypt.WatermarkKey{}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.PlanStream(ctx, tbl.Segments(0), key); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
	_, err := fw.PlanStream(context.Background(), &errSegments{tbl: tbl}, key)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("reading segment 1")) {
		t.Fatalf("mid-stream error: %v", err)
	}
}

// TestPlanStreamProgress checks the per-segment progress callbacks.
func TestPlanStreamProgress(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 1000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	var stages []string
	var last int
	ctx := WithProgress(context.Background(), func(p Progress) {
		stages = append(stages, p.Stage)
		last = p.Done
	})
	if _, err := fw.PlanStream(ctx, tbl.Segments(300), key); err != nil {
		t.Fatal(err)
	}
	planTicks := 0
	for _, s := range stages {
		if s == "plan" {
			planTicks++
		}
	}
	if planTicks != 4 {
		t.Fatalf("plan progress ticks = %d (stages %v), want 4", planTicks, stages)
	}
	if last != 1000 {
		t.Fatalf("last Done = %d, want 1000", last)
	}
}
