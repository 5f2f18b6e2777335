package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// with the metric tables.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile keeps BENCHMARK.json and the
// metric tables the program prints from in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}

// runResult is the last line of a run's output.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs one workload down-scaled: 20k-row tables and a short
// service loop.
func smokeRun(t *testing.T, workload string, trace bool) runResult {
	t.Helper()
	cfg := &config{workload: workload, seed: 1, seconds: 1, trace: trace, workdir: t.TempDir(), rows: 20000, clients: 2}
	if workload == "service-mix" {
		cfg.seconds = 2
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d; output:\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// TestSmoke runs every workload untraced and traced at small scale: all
// correctness checks pass, every end-to-end metric is emitted non-zero,
// every per-layer metric appears, and the replays reproduce the core
// calls.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := smokeRun(t, w.Name, false)
			for _, m := range bf.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: %+v (present %v)", m.Name, got, ok)
				}
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("emitted %d end-to-end metrics, want %d", len(res.Metrics), len(bf.EndToEnd))
			}

			traced := smokeRun(t, w.Name, true)
			for _, m := range bf.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: %+v (present %v)", m.Name, got, ok)
				}
			}
			if len(traced.Metrics) != len(bf.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, want %d", len(traced.Metrics), len(bf.PerLayer))
			}
			replays := map[string]float64{"release-1m": 2, "leak-1m": 2 * leakTraceRounds}
			if want, ok := replays[w.Name]; ok {
				if got := traced.Metrics["trace.replays_identical"].Value; got != want {
					t.Errorf("%v replays identical to the core calls, want %v", got, want)
				}
			} else if traced.Metrics["core.append_ms"].Value <= 0 || traced.Metrics["server.append_ms"].Value <= 0 {
				t.Errorf("service trace lacks core or server timings: %+v", traced.Metrics)
			}
		})
	}
}
