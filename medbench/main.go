// Command medbench is the medshield benchmark. It runs one named
// workload against the repository's pipeline, checks that every output
// is correct, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	medbench --workload release-1m|leak-1m|service-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing. With --trace 1 it carries the per-layer metrics: the
// benchmark replays the exact call sequence of each core operation
// through the modules' public functions, times every call from outside
// the program, and checks that the replay reproduces the core call's
// bytes or verdicts. See README.md for the metric ledger.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Their
// meaning per workload is in README.md: an "operation" is one release
// (plan + apply) on release-1m, one forensic answer (detect + traceback)
// on leak-1m and one client session of ten mixed HTTP requests on
// service-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"peak_rss_mib", "MiB"},
	{"allocs_per_row", "count"},
}

// perLayer are the metrics every workload reports with --trace 1; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Per-operation breakdown, measured untraced inside the traced run.
	{"plan_s", "s"}, {"apply_s", "s"}, {"plan_allocs_per_row", "count"}, {"apply_allocs_per_row", "count"},
	{"detect_s", "s"}, {"traceback_s", "s"},
	{"append_p50_ms", "ms"}, {"append_p99_ms", "ms"}, {"detect_req_p50_ms", "ms"},
	{"job_p50_ms", "ms"}, {"fingerprint_p50_ms", "ms"}, {"service_req_per_s", "1/s"},
	{"error_rate", "ratio"},
	// relation
	{"relation.ingest_s", "s"}, {"relation.ingest_allocs_per_row", "count"},
	{"relation.egress_s", "s"}, {"relation.egress_allocs_per_row", "count"},
	// binning: sketch and search
	{"binning.sketch_add_s", "s"}, {"binning.search_s", "s"}, {"binning.epsilon_bins_s", "s"},
	{"binning.research_s", "s"}, {"binning.searches", "count"},
	// binning: apply
	{"binning.suppress_s", "s"}, {"binning.suppressed_rows", "count"},
	{"binning.transform_s", "s"}, {"binning.transform_allocs_per_row", "count"},
	// ownership
	{"ownership.stat_s", "s"},
	// anonymity
	{"anonymity.bins_s", "s"}, {"anonymity.bins_allocs_per_row", "count"},
	// watermark: write side
	{"watermark.embed_s", "s"}, {"watermark.embed_allocs_per_row", "count"},
	{"watermark.tuples_selected", "count"}, {"watermark.bits_embedded", "count"},
	// watermark: read side
	{"watermark.detect_add_s", "s"}, {"watermark.detect_result_s", "s"},
	{"watermark.suspect_prepare_s", "s"}, {"watermark.select_s", "s"}, {"watermark.accumulate_s", "s"},
	{"watermark.votes_cast", "count"}, {"watermark.detect_allocs_per_row", "count"},
	// core: the real call minus the replay's layer sum
	{"core.plan_residual_s", "s"}, {"core.apply_residual_s", "s"},
	{"core.detect_residual_s", "s"}, {"core.traceback_residual_s", "s"},
	// core per request, replayed directly on the service payloads
	{"core.append_ms", "ms"}, {"core.detect_ms", "ms"}, {"core.protect_ms", "ms"}, {"core.fingerprint_ms", "ms"},
	// server and tenant plane
	{"server.append_ms", "ms"}, {"server.detect_ms", "ms"}, {"server.fingerprint_ms", "ms"},
	{"server.job_submit_ms", "ms"}, {"server.job_poll_ms", "ms"},
	{"plane.append_overhead_ms", "ms"}, {"plane.detect_overhead_ms", "ms"}, {"plane.fingerprint_overhead_ms", "ms"},
	{"http.append_client_overhead_ms", "ms"}, {"http.detect_client_overhead_ms", "ms"},
	{"http.fingerprint_client_overhead_ms", "ms"},
	// jobs
	{"jobs.queue_wait_ms", "ms"}, {"jobs.run_ms", "ms"}, {"jobs.poll_overhead_ms", "ms"},
	// the trace itself
	{"trace.overhead_pct", "%"}, {"trace.plan_coverage", "ratio"}, {"trace.apply_coverage", "ratio"},
	{"trace.detect_coverage", "ratio"}, {"trace.traceback_coverage", "ratio"},
	{"trace.replays_identical", "count"}, {"trace.spans", "count"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	dataSeed int64 // seeds the generated tables
	reqSeed  int64 // seeds request sequences and attacks
	seconds  float64
	trace    bool
	workdir  string // scratch files live in a run directory under it
	rows     int    // table size of release-1m and leak-1m
	clients  int    // closed-loop clients of service-mix
}

// opMetric is one per-operation figure with its sample count.
type opMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	samples           map[string]int // sample count behind each end-to-end metric
	ops               map[string]opMetric
	layers            map[string]float64
	info              map[string]any // output digests and other run facts
}

func newResult() *result {
	return &result{
		info:    make(map[string]any),
		e2e:     make(map[string]float64),
		samples: make(map[string]int),
		ops:     make(map[string]opMetric),
		layers:  make(map[string]float64),
	}
}

// op records a per-operation figure; in a traced run it is also a
// per-layer metric.
func (r *result) op(name, unit string, value float64, samples int) {
	r.ops[name] = opMetric{Value: value, Unit: unit, Samples: samples}
	r.layers[name] = value
}

var workloads = map[string]func(*config, *result) error{
	"release-1m":  runRelease,
	"leak-1m":     runLeak,
	"service-mix": runService,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: release-1m, leak-1m or service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Int64Var(&cfg.dataSeed, "data-seed", 0, "table seed (default: derived from -seed)")
	flag.Int64Var(&cfg.reqSeed, "request-seed", 0, "request-sequence and attack seed (default: derived from -seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for generated inputs and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.rows = 1000000
	cfg.clients = runtime.NumCPU()
	if err := run(&cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "medbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report and result lines.
func run(cfg *config, stdout io.Writer) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.dataSeed == 0 {
		cfg.dataSeed = cfg.seed
	}
	if cfg.reqSeed == 0 {
		cfg.reqSeed = cfg.seed*7919 + 17
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	sub := *cfg
	sub.workdir = runDir

	res := newResult()
	if err := fn(&sub, res); err != nil {
		return err
	}
	if res.attempted == 0 {
		return fmt.Errorf("workload attempted no operation")
	}
	// Every failed operation or check is one problem.
	res.failed = min(len(res.problems), res.attempted)
	res.op("error_rate", "ratio", float64(res.failed)/float64(res.attempted), res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "medbench: check failed:", p)
	}

	defs := endToEnd
	values := res.e2e
	if cfg.trace {
		defs = perLayer
		values = res.layers
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload produced no %s", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	report := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"trace":    cfg.trace,
		"machine":  machine(),
		"samples":  res.samples,
		"ops":      res.ops,
		"problems": res.problems,
		"info":     res.info,
	}
	if err := printJSON(stdout, map[string]any{"report": report}); err != nil {
		return err
	}
	return printJSON(stdout, map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// machine describes where and on what code the result was measured:
// results from different machines are not comparable.
func machine() map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["commit_modified"] = s.Value == "true"
			}
		}
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the measured
// code — everything under root except build output and the benchmark
// itself — so results name the code they measured even where no commit
// is known.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "medbench":
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// deadline returns when the measured loop of a run ends.
func deadline(cfg *config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
