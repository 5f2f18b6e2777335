// Benchmarks: one testing.B sub-benchmark per experiment of
// experiments.Runners (E1..E9 reproduce the paper's evaluation; E10..E12
// measure its in-text suggestions), plus per-operation benchmarks for the
// pipeline's hot paths. Run with: go test -bench=. -benchmem .
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/attack"
	"repro/internal/binning"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/watermark"
	"repro/medshield"
)

// benchConfig keeps figure regeneration affordable inside testing.B while
// exercising the full code paths; cmd/experiments runs the paper-scale
// version (20,000 rows).
func benchConfig() experiments.Config {
	return experiments.Config{Rows: 4000, Seed: 1}
}

// BenchmarkExperiments runs every experiment of experiments.Runners as
// a sub-benchmark named after its -run name (e.g. -bench
// 'Experiments/fig12a').
func BenchmarkExperiments(b *testing.B) {
	for _, r := range experiments.Runners {
		b.Run(r.Name, func(b *testing.B) {
			for b.Loop() {
				if _, err := r.Run(benchConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- per-operation benchmarks ------------------------------------------

func benchTable(b *testing.B, rows int) *relation.Table {
	b.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: rows, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

func BenchmarkDataGeneration20k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonoBinDownward(b *testing.B) {
	tbl := benchTable(b, 20000)
	tree := ontology.Symptom()
	values, _ := tbl.Column(ontology.ColSymptom)
	maxg := dht.RootGenSet(tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := binning.MonoBin(tree, maxg, values, 50, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonoBinUpward(b *testing.B) {
	tbl := benchTable(b, 20000)
	tree := ontology.Symptom()
	values, _ := tbl.Column(ontology.ColSymptom)
	maxg := dht.RootGenSet(tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := binning.MonoBinUpward(tree, maxg, values, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiBinGreedy(b *testing.B) { benchmarkMultiBinGreedyWorkers(b, 1) }

func BenchmarkProtect20k(b *testing.B) {
	tbl := benchTable(b, 20000)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.ProtectContext(context.Background(), tbl, key); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- incremental append (plan/apply/append pipeline) -------------------

// appendBenchFixture protects a 20k-row base once and carves a 2k-row
// delta from the same distribution — the nightly-batch scenario.
func appendBenchFixture(b *testing.B) (*medshield.Framework, medshield.Plan, *relation.Table, *relation.Table, medshield.Key) {
	b.Helper()
	all := benchTable(b, 22000)
	base, err := all.Slice(0, 20000)
	if err != nil {
		b.Fatal(err)
	}
	delta, err := all.Slice(20000, 22000)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	prot, err := fw.ProtectContext(context.Background(), base, key)
	if err != nil {
		b.Fatal(err)
	}
	return fw, prot.Plan, delta, all, key
}

// BenchmarkAppend2k protects a 2,000-row nightly batch under an
// existing 20,000-row plan — the incremental path: no binning search,
// one transform plus one embed. Its counterpart BenchmarkReprotect22k
// measures the alternative this replaces (full re-Protect of the
// union); the ratio is the staged pipeline's payoff, and scripts/bench.sh
// refuses to record an entry in which the append is not at least 5x
// faster. internal/core's TestAppendNeedsNoSearch pins the reason: an
// append runs no binning search.
func BenchmarkAppend2k(b *testing.B) {
	fw, plan, delta, _, key := appendBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.AppendContext(context.Background(), delta, &plan, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReprotect22k re-runs the full pipeline on the 22,000-row
// union — what ingesting a 2k batch would cost without AppendContext.
func BenchmarkReprotect22k(b *testing.B) {
	fw, _, _, all, key := appendBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.ProtectContext(context.Background(), all, key); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- streaming data plane (million-row scale) ---------------------------

// BenchmarkProtect200k is the 10x-scale cousin of BenchmarkProtect20k:
// full pipeline (binning search + transform + embed) over 200,000 rows.
// -benchmem's bytes/op is the interesting number — the search and the
// in-memory transform both scale with the table.
func BenchmarkProtect200k(b *testing.B) {
	tbl := benchTable(b, 200000)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.ProtectContext(context.Background(), tbl, key); err != nil {
			b.Fatal(err)
		}
	}
}

// streamBenchFixture generates rows synthetic tuples and freezes a plan
// over them; the streaming benchmarks replay that plan through
// ApplyStream, whose working set is one segment, not the table.
func streamBenchFixture(tb testing.TB, rows int) (*medshield.Framework, *relation.Table, *medshield.Plan, medshield.Key) {
	tb.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: rows, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		tb.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		tb.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		tb.Fatal(err)
	}
	return fw, tbl, plan, key
}

// BenchmarkApplyStream1M executes a frozen plan over one million rows
// segment-at-a-time (DefaultChunk rows per segment, protected CSV to
// io.Discard). bytes/op stays bounded by the segment size no matter the
// table — TestApplyStreamBoundedMemory turns that into a hard gate.
func BenchmarkApplyStream1M(b *testing.B) {
	fw, tbl, plan, key := streamBenchFixture(b, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, key, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestApplyStreamBoundedMemory is the memory gate of the streaming data
// plane: ApplyStream over one million rows must not grow the heap by
// more than a fixed budget over the fixture baseline. A regression to
// whole-table buffering (materializing the protected table or its CSV,
// each >100 MB at this scale) trips it. The measured segment-bounded
// peak is 12 MiB over the 53 MiB baseline on a 2-vCPU VM (15–16 MiB
// while the write loop cloned each segment and grew its identifier
// arenas by doubling), so the budget leaves about 5x headroom for GC
// timing noise.
func TestApplyStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row fixture in -short mode")
	}
	fx := millionRowGates(t)
	tbl, err := medshield.LoadCSVFile(fx.csv, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	var res *medshield.Streamed
	heapGate(t, "ApplyStream", 64<<20, "streaming has regressed toward whole-table buffering", func() (err error) {
		res, err = fx.fw.ApplyStream(context.Background(), tbl.Segments(0), fx.plan, fx.key, io.Discard)
		return err
	})
	if res.Rows != 1000000 {
		t.Fatalf("streamed rows = %d", res.Rows)
	}
}

// gateFixture is the one million-row fixture the three bounded-memory
// gates share, built once per test binary: streamBenchFixture's
// framework, frozen plan and key, its table as a CSV file, and the
// table's ApplyStream release as a CSV file with the release's
// effective plan. The table itself is not kept: the plan and detect
// gates measure with nothing table-sized resident, and the apply gate
// loads the CSV file back.
type gateFixture struct {
	fw         *medshield.Framework
	plan       *medshield.Plan
	key        medshield.Key
	csv        string
	marked     string
	markedPlan medshield.Plan
}

var (
	gateOnce sync.Once
	gates    *gateFixture
	// gateDir holds the fixture's files; TestMain removes it.
	gateDir string
)

// millionRowGates returns the shared gate fixture, building it on the
// first call.
func millionRowGates(t *testing.T) *gateFixture {
	t.Helper()
	gateOnce.Do(func() {
		fw, tbl, plan, key := streamBenchFixture(t, 1000000)
		dir, err := os.MkdirTemp("", "medshield-gates-")
		if err != nil {
			t.Fatal(err)
		}
		gateDir = dir
		fx := &gateFixture{fw: fw, plan: plan, key: key,
			csv: filepath.Join(dir, "plan.csv"), marked: filepath.Join(dir, "suspect.csv")}
		if err := medshield.SaveCSVFile(fx.csv, tbl); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(fx.marked)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, key, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		fx.markedPlan = res.Plan
		gates = fx
	})
	if gates == nil {
		t.Fatal("the million-row gate fixture failed to build in an earlier test")
	}
	return gates
}

func TestMain(m *testing.M) {
	code := m.Run()
	if gateDir != "" {
		os.RemoveAll(gateDir)
	}
	os.Exit(code)
}

// heapGate is the sampler of the bounded-memory gates: it runs fn and
// fails t when the heap peak, sampled every 2 ms, grows more than
// budget bytes over the baseline taken just before fn. Where a fixture
// table stays resident (53 MiB live at 1M rows), the collector at the default
// GOGC=100 would happily let the heap double before collecting —
// masking exactly the growth the gates police — so fn runs under a
// tight GC target that keeps sampled peaks close to live memory. run
// names fn in the log and regressed says what a breach means.
func heapGate(t *testing.T, run string, budget int64, regressed string, fn func() error) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	err := fn()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	grew := int64(peak.Load()) - int64(base.HeapAlloc)
	t.Logf("%s over 1M rows: heap peak %d MiB over the %d MiB baseline (budget %d MiB)",
		run, grew>>20, base.HeapAlloc>>20, budget>>20)
	if grew > budget {
		t.Errorf("%s heap grew %d MiB over baseline, budget %d MiB — %s",
			run, grew>>20, budget>>20, regressed)
	}
}

// planStreamFixture generates rows synthetic tuples plus a framework
// and key for the streaming planner benchmarks. Unlike
// streamBenchFixture it does NOT freeze a plan up front — planning is
// the thing being measured.
func planStreamFixture(tb testing.TB, rows int) (*medshield.Framework, *relation.Table, medshield.Key) {
	tb.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: rows, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		tb.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		tb.Fatal(err)
	}
	return fw, tbl, medshield.NewKey("bench", 75)
}

// BenchmarkPlanStream1M runs the one-pass sketch planner over one
// million rows, segment-at-a-time. The working set is the quasi-tuple
// sketch (distinct tuples, not rows), so bytes/op stays far below the
// table size — TestPlanStreamBoundedMemory turns that into a hard gate.
func BenchmarkPlanStream1M(b *testing.B) {
	fw, tbl, key := planStreamFixture(b, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.PlanStream(context.Background(), tbl.Segments(0), key); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkPlan plans a rows-row table (seed 1) under K=20 AutoEpsilon,
// the service's defaults, optionally under the aggressive minimality
// rule: the plan behind one small request. At these sizes deciding
// between the exhaustive and the greedy search — counting the allowable
// generalizations — is a large share of the search.
func benchmarkPlan(b *testing.B, rows int, aggressive bool) {
	tbl := benchTable(b, rows)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true, Aggressive: aggressive})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.PlanContext(ctx, tbl, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan2kAggressive is the plan of a 2,000-row protect job
// under the aggressive minimality rule.
func BenchmarkPlan2kAggressive(b *testing.B) { benchmarkPlan(b, 2000, true) }

// BenchmarkPlan5k is the plan of a 5,000-row fingerprint request.
func BenchmarkPlan5k(b *testing.B) { benchmarkPlan(b, 5000, false) }

// BenchmarkPlanApplyStream10M is the end-to-end ten-million-row number:
// stream-plan the table, then execute the resulting plan through
// ApplyStream. Neither pass materializes the output, so the pipeline's
// transient memory stays segment- and sketch-bounded even at 10x the
// scale of the 1M gates.
func BenchmarkPlanApplyStream10M(b *testing.B) {
	fw, tbl, key := planStreamFixture(b, 10000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := fw.PlanStream(context.Background(), tbl.Segments(0), key)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), ps.Plan, key, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanStreamBoundedMemory is the memory gate of the streaming
// planner: PlanStream over a one-million-row CSV must not grow the heap
// by more than a fixed budget over the baseline. The whole call — CSV
// ingest, sketch, search — is inside the gate. The planner's state is the quasi-tuple sketch, sized by
// distinct quasi-tuples, not rows, so a regression toward materializing
// the table (or the per-row work tables the in-memory search keeps)
// trips the gate.
func TestPlanStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row fixture in -short mode")
	}
	fx := millionRowGates(t)
	f, err := os.Open(fx.csv)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := medshield.NewSegmentReader(f, medshield.BuiltinSchema(), fx.fw.Config().Chunk)
	if err != nil {
		t.Fatal(err)
	}

	// The measured peak (67–84 MiB over a ~0 MiB baseline on a 2-vCPU
	// VM) is the reader's block buffer and in-flight segments, the
	// quasi-tuple sketch over the Zipf fixture's distinct tuples, then
	// the search setup's copy of those tuples and the greedy ascent's
	// bin slab and postings. The budget sits above that noise floor but
	// below that peak plus the table (53 MiB live at this scale) an
	// ingest or search regression toward whole-table buffering would
	// keep.
	var ps *medshield.PlannedStream
	heapGate(t, "PlanStream", 96<<20, "the planner has regressed toward whole-table buffering", func() (err error) {
		ps, err = fx.fw.PlanStream(context.Background(), sr, fx.key)
		return err
	})
	if ps.Rows != 1000000 {
		t.Fatalf("planned rows = %d", ps.Rows)
	}
}

// ---- sequential vs parallel (Config.Workers) ---------------------------
//
// The pipeline guarantees byte-identical output for every worker count,
// so these sub-benchmarks measure pure scheduling gain. Run with e.g.
//
//	go test -bench 'Workers' -benchmem .
//
// On a multi-core runner Workers=GOMAXPROCS should beat Workers=1
// substantially (the fan-out covers binning scans, identifier
// encryption, generalization, embedding and detection); on a single-core
// runner the two converge, bounding the pool's overhead.

func benchmarkProtectWorkers(b *testing.B, workers int) {
	tbl := benchTable(b, 20000)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.ProtectContext(context.Background(), tbl, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtect20kWorkers1(b *testing.B)   { benchmarkProtectWorkers(b, 1) }
func BenchmarkProtect20kWorkersMax(b *testing.B) { benchmarkProtectWorkers(b, runtime.GOMAXPROCS(0)) }

// TestProtect20kWorkersIdentical guards the determinism claim the
// Workers benchmarks rely on, at benchmark scale: one sequential and one
// fully parallel run must publish byte-identical tables.
func TestProtect20kWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row Protect x2 in -short mode")
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	var baseline string
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := fw.ProtectContext(context.Background(), tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := p.Table.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if baseline == "" {
			baseline = sb.String()
		} else if sb.String() != baseline {
			t.Fatal("parallel Protect output differs from sequential")
		}
	}
}

func benchmarkEmbedWorkers(b *testing.B, workers int) {
	fw, p, key := protectedFixture(b)
	specs, err := fw.SpecsFromProvenance(p.Provenance)
	if err != nil {
		b.Fatal(err)
	}
	params, errP := benchParams(p, key)
	if errP != nil {
		b.Fatal(errP)
	}
	params.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := p.Table.Clone()
		b.StartTimer()
		if _, err := watermark.EmbedContext(context.Background(), clone, p.Provenance.IdentCol, specs, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbed20kWorkers1(b *testing.B)   { benchmarkEmbedWorkers(b, 1) }
func BenchmarkEmbed20kWorkersMax(b *testing.B) { benchmarkEmbedWorkers(b, runtime.GOMAXPROCS(0)) }

func benchmarkDetectWorkers(b *testing.B, workers int) {
	tbl := benchTable(b, 20000)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	p, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.DetectContext(context.Background(), p.Table, p.Provenance, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetect20kWorkers1(b *testing.B)   { benchmarkDetectWorkers(b, 1) }
func BenchmarkDetect20kWorkersMax(b *testing.B) { benchmarkDetectWorkers(b, runtime.GOMAXPROCS(0)) }

// benchmarkMultiBinGreedyWorkers times the Figure 8 search over a
// 20k-row sketch built before the timer starts: mono-attribute binning
// and the greedy multi-attribute ascent at K=25 under root usage
// metrics.
func benchmarkMultiBinGreedyWorkers(b *testing.B, workers int) {
	tbl := benchTable(b, 20000)
	trees := ontology.Trees()
	sk, err := binning.NewSketch(tbl.Schema(), trees)
	if err != nil {
		b.Fatal(err)
	}
	if err := sk.Add(tbl); err != nil {
		b.Fatal(err)
	}
	maxg := map[string]dht.GenSet{}
	for _, col := range tbl.Schema().QuasiColumns() {
		maxg[col] = dht.RootGenSet(trees[col])
	}
	cfg := binning.Config{K: 25, Trees: trees, MaxGens: maxg, Strategy: binning.StrategyGreedy, Workers: workers}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binning.SearchSketch(ctx, sk, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSketch1M is the binning search layer at the release
// workload's shape: one SearchSketch at K=20 under the core defaults
// (root usage metrics, Auto strategy) over the sketch of a million
// synthetic rows, built before the timer starts.
func BenchmarkSearchSketch1M(b *testing.B) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	trees := ontology.Trees()
	sk, err := binning.NewSketch(tbl.Schema(), trees)
	if err != nil {
		b.Fatal(err)
	}
	if err := sk.Add(tbl); err != nil {
		b.Fatal(err)
	}
	tbl = nil
	cfg := binning.Config{K: 20, Trees: trees, Workers: runtime.GOMAXPROCS(0)}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binning.SearchSketch(ctx, sk, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchAdd1M is the sketch ingest layer at the release
// workload's shape: one NewSketch and one Add per relation.DefaultChunk
// segment over a million synthetic rows (seed 1), cut into segments
// before the timer starts. It reports rows/s and allocations.
func BenchmarkSketchAdd1M(b *testing.B) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	rows, schema := tbl.NumRows(), tbl.Schema()
	var segs []*relation.Table
	src := tbl.Segments(relation.DefaultChunk)
	for {
		seg, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg)
	}
	tbl = nil
	trees := ontology.Trees()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, err := binning.NewSketch(schema, trees)
		if err != nil {
			b.Fatal(err)
		}
		for _, seg := range segs {
			if err := sk.Add(seg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkSegmentReader1M is the relation ingest layer: one
// SegmentReader drained over a million-row release CSV held in memory —
// datagen's seed-1 correlated rows as ApplyStream publishes them, the
// identifying column encrypted (unique per row) and the quasi columns
// generalized — built before the timer starts. It reports rows/s and
// allocations; the unique column is what the per-row allocation count
// measures.
func BenchmarkSegmentReader1M(b *testing.B) {
	fw, tbl, plan, key := streamBenchFixture(b, 1000000)
	var csvBuf bytes.Buffer
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, key, &csvBuf); err != nil {
		b.Fatal(err)
	}
	data := csvBuf.Bytes()
	tbl = nil
	schema := medshield.BuiltinSchema()
	drain := func() int {
		sr, err := relation.NewSegmentReader(bytes.NewReader(data), schema, relation.DefaultChunk)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				return sr.Rows()
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	rows := drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := drain(); n != rows {
			b.Fatalf("read %d rows, want %d", n, rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkSegmentWriter1M is the relation egress layer: the protected
// segments of the ApplyStream1M fixture — its release CSV read back by
// one SegmentReader before the timer starts, so they carry the reader's
// shared dictionaries — written by one SegmentWriter to io.Discard. It
// reports rows/s and allocations.
func BenchmarkSegmentWriter1M(b *testing.B) {
	fw, tbl, plan, key := streamBenchFixture(b, 1000000)
	var csvBuf bytes.Buffer
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, key, &csvBuf); err != nil {
		b.Fatal(err)
	}
	tbl = nil
	schema := medshield.BuiltinSchema()
	sr, err := relation.NewSegmentReader(&csvBuf, schema, relation.DefaultChunk)
	if err != nil {
		b.Fatal(err)
	}
	var segs []*relation.Table
	for {
		seg, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg)
	}
	csvBuf = bytes.Buffer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := relation.NewSegmentWriter(io.Discard, schema)
		for _, seg := range segs {
			if err := sw.WriteSegment(seg); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sr.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkMultiBinGreedyWorkers1(b *testing.B) { benchmarkMultiBinGreedyWorkers(b, 1) }
func BenchmarkMultiBinGreedyWorkersMax(b *testing.B) {
	benchmarkMultiBinGreedyWorkers(b, runtime.GOMAXPROCS(0))
}

func protectedFixture(b *testing.B) (*medshield.Framework, *medshield.Protected, medshield.Key) {
	b.Helper()
	tbl := benchTable(b, 20000)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		b.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	p, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		b.Fatal(err)
	}
	return fw, p, key
}

func BenchmarkDetect20k(b *testing.B) {
	fw, p, key := protectedFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.DetectContext(context.Background(), p.Table, p.Provenance, key); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- multi-recipient traceback ------------------------------------------

// tracebackFixture registers n recipients of one 20k-row source (one
// plan, per-recipient salted marks and keys) and leaks recipient 0's
// copy: plan once, apply once for the leaker, derive the other
// candidates without materializing their tables.
func tracebackFixture(tb testing.TB, n int) (*medshield.Framework, *relation.Table, []core.Candidate) {
	tb.Helper()
	const secret = "traceback bench master secret"
	src, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		tb.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]string, n)
	keys := make([]medshield.Key, n)
	for i := range ids {
		ids[i] = "hospital-" + strconvItoa(i)
		keys[i] = medshield.RecipientKey(secret, ids[i], 75)
	}
	plan, err := fw.PlanContext(context.Background(), src, keys[0])
	if err != nil {
		tb.Fatal(err)
	}
	leakPlan, err := core.RecipientPlan(plan, ids[0])
	if err != nil {
		tb.Fatal(err)
	}
	leaked, err := fw.ApplyContext(context.Background(), src, leakPlan, keys[0])
	if err != nil {
		tb.Fatal(err)
	}
	cands := make([]core.Candidate, n)
	for i := range ids {
		rp, err := core.RecipientPlan(plan, ids[i])
		if err != nil {
			tb.Fatal(err)
		}
		prov := rp.Provenance
		prov.BoundaryPermutation = leaked.Provenance.BoundaryPermutation
		cands[i] = core.Candidate{ID: ids[i], Provenance: prov, Key: keys[i]}
	}
	return fw, leaked.Table, cands
}

func strconvItoa(i int) string { return fmt.Sprintf("%02d", i) }

// BenchmarkTraceback50 measures the leak-triage hot path: one suspect
// 20k-row table tested against 50 registered recipients. The suspect's
// verdict tables are shared across candidates and the Equation (5)
// selection scan runs once (RecipientKey-derived keys share K1), so the
// cost is one table scan plus 50 cheap vote walks — compare
// BenchmarkDetect20k times 50 for the naive alternative.
func BenchmarkTraceback50(b *testing.B) {
	fw, suspect, cands := tracebackFixture(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbk, err := fw.TracebackContext(context.Background(), suspect, cands)
		if err != nil {
			b.Fatal(err)
		}
		if tbk.Culprit != cands[0].ID {
			b.Fatalf("culprit = %q", tbk.Culprit)
		}
	}
}

// ---- shared-transform fingerprint fan-out --------------------------------

// fingerprintBenchRecipients derives n recipient key sets from one
// master secret — the RecipientKey path, which shares the selection and
// encryption keys so the fan-out pays exactly one transform.
func fingerprintBenchRecipients(n int) []core.Recipient {
	const secret = "fingerprint bench master secret"
	recs := make([]core.Recipient, n)
	for i := range recs {
		id := "hospital-" + strconvItoa(i)
		recs[i] = core.Recipient{ID: id, Key: medshield.RecipientKey(secret, id, 75)}
	}
	return recs
}

// BenchmarkFingerprint16 measures the outsourcing fan-out hot path: one
// 20k-row source marked for 16 recipients. The binning search and the
// transform stage (identifier encryption, generalization, the k check)
// run once; each recipient pays only a clone-and-embed pass — compare
// BenchmarkProtect20k times 16 for the naive alternative. ns/op is
// recorded in BENCH_pipeline.json by scripts/bench.sh, which refuses an
// entry in which 16 Protect20k runs are not at least 3x slower than one
// Fingerprint16; internal/core's TestFingerprintSharesTransformAndSelection
// counts the sharing behind that ratio.
func BenchmarkFingerprint16(b *testing.B) {
	tbl := benchTable(b, 20000)
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		b.Fatal(err)
	}
	recs := fingerprintBenchRecipients(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.FingerprintContext(context.Background(), tbl, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- streaming detect (million-row scale) --------------------------------

// detectStreamFixture stream-protects one million rows into a suspect
// CSV on disk and returns what detection needs: the framework, the CSV
// path, the effective plan (whose provenance detection verifies
// against) and the key. The suspect is never materialized in memory.
func detectStreamFixture(tb testing.TB) (*medshield.Framework, string, medshield.Plan, medshield.Key) {
	tb.Helper()
	fw, tbl, plan, key := streamBenchFixture(tb, 1000000)
	path := filepath.Join(tb.TempDir(), "suspect.csv")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, key, f)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return fw, path, res.Plan, key
}

// BenchmarkDetectStream1M recovers the mark from a million-row suspect
// CSV segment-at-a-time: per segment the verdict tables are rebuilt and
// the votes accumulated into one persistent board, so bytes/op stays
// bounded by the segment size — TestDetectStreamBoundedMemory turns
// that into a hard gate.
func BenchmarkDetectStream1M(b *testing.B) {
	fw, path, plan, key := detectStreamFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := medshield.NewSegmentReader(f, medshield.BuiltinSchema(), fw.Config().Chunk)
		if err != nil {
			b.Fatal(err)
		}
		res, err := fw.DetectStream(context.Background(), sr, plan.Provenance, key)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Match {
			b.Fatal("streamed detection missed the mark")
		}
		f.Close()
	}
}

// TestDetectStreamBoundedMemory is the memory gate of the read-side
// streaming plane: detecting over a million-row suspect CSV must not
// grow the heap by more than a fixed budget over the baseline. The
// detector's persistent state is one |wmd|-position vote board plus
// counters; a regression toward materializing the suspect (>100 MB at
// this scale) trips the gate.
func TestDetectStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row fixture in -short mode")
	}
	fx := millionRowGates(t)
	var res *medshield.DetectStreamed
	heapGate(t, "DetectStream", 64<<20, "streaming has regressed toward whole-table buffering", func() error {
		f, err := os.Open(fx.marked)
		if err != nil {
			return err
		}
		defer f.Close()
		sr, err := medshield.NewSegmentReader(f, medshield.BuiltinSchema(), fx.fw.Config().Chunk)
		if err != nil {
			return err
		}
		res, err = fx.fw.DetectStream(context.Background(), sr, fx.markedPlan.Provenance, fx.key)
		return err
	})
	if res.Rows != 1000000 {
		t.Fatalf("streamed rows = %d", res.Rows)
	}
	if !res.Match {
		t.Fatal("streamed detection missed the mark")
	}
}

// ---- async job layer ---------------------------------------------------

// BenchmarkJobThroughput pushes b.N small protect jobs through the full
// async path — HTTP submit, queue, 4-worker pool, result encoding —
// then waits for the queue to drain, so ns/op is the per-job cost of
// the job layer plus a 500-row protect. scripts/bench.sh records it in
// BENCH_pipeline.json next to the sync pipeline numbers.
func BenchmarkJobThroughput(b *testing.B) {
	tbl := benchTable(b, 500)
	wire, err := api.EncodeTable(tbl, api.OutputCSV)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(api.ProtectRequest{
		Table:  wire,
		Key:    api.Key{Secret: "bench", Eta: 75},
		Output: api.OutputCSV,
	})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := server.New(server.Config{
		Defaults: core.Config{K: 20, AutoEpsilon: true},
		Jobs:     jobs.Config{Workers: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	getJob := func(id string) api.JobResponse {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var jr api.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			b.Fatal(err)
		}
		return jr
	}

	b.ResetTimer()
	ids := make([]string, b.N)
	for i := range ids {
		resp, err := http.Post(ts.URL+"/v1/jobs/protect", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var jr api.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d", resp.StatusCode)
		}
		ids[i] = jr.Job.ID
	}
	for _, id := range ids {
		for {
			jr := getJob(id)
			if jr.Job.State.Terminal() {
				if jr.Job.State != jobs.StateSucceeded {
					b.Fatalf("job %s ended %s: %s", id, jr.Job.State, jr.Job.Error)
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func BenchmarkDetectUnderAttack20k(b *testing.B) {
	fw, p, key := protectedFixture(b)
	attacked := p.Table.Clone()
	specs, err := fw.SpecsFromProvenance(p.Provenance)
	if err != nil {
		b.Fatal(err)
	}
	pools := map[string][]string{}
	for col, spec := range specs {
		pools[col] = spec.UltiGen.Values()
	}
	if _, err := attack.AlterSubset(attacked, pools, 0.4, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.DetectContext(context.Background(), attacked, p.Provenance, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptIdentifier(b *testing.B) {
	c, err := crypt.NewCipher([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AppendEncryptString(nil, "123-45-6789")
	}
}

func BenchmarkEmbedOnly20k(b *testing.B) {
	fw, p, key := protectedFixture(b)
	specs, err := fw.SpecsFromProvenance(p.Provenance)
	if err != nil {
		b.Fatal(err)
	}
	params, errP := benchParams(p, key)
	if errP != nil {
		b.Fatal(errP)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := p.Table.Clone()
		if _, err := watermark.EmbedContext(context.Background(), clone, p.Provenance.IdentCol, specs, params); err != nil {
			b.Fatal(err)
		}
	}
}

func benchParams(p *medshield.Protected, key medshield.Key) (watermark.Params, error) {
	mark, err := bitsFromString(p.Provenance.Mark)
	if err != nil {
		return watermark.Params{}, err
	}
	return watermark.Params{
		Key:                    key,
		Mark:                   mark,
		Duplication:            p.Provenance.Duplication,
		SaltPositionWithColumn: p.Provenance.SaltPositionWithColumn,
		BoundaryPermutation:    p.Provenance.BoundaryPermutation,
	}, nil
}
