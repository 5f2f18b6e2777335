package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ownership"
	"repro/internal/relation"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return ts
}

func testTable(t *testing.T, rows int) *relation.Table {
	t.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: rows, Seed: 42, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func postJSON(t *testing.T, url string, req, resp any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), resp); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", url, err, buf.String())
		}
	}
	return r.StatusCode, buf.Bytes()
}

// TestHTTPRoundTrip is the acceptance path: protect a synthetic table
// over HTTP, feed the response table + provenance into detect over
// HTTP, and require a match — in both table payload formats.
func TestHTTPRoundTrip(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 1500)

	for _, output := range []string{api.OutputRows, api.OutputCSV} {
		t.Run(output, func(t *testing.T) {
			wire, err := api.EncodeTable(tbl, output)
			if err != nil {
				t.Fatal(err)
			}
			key := api.Key{Secret: "round-trip secret", Eta: 25}
			var prot api.ProtectResponse
			status, raw := postJSON(t, ts.URL+"/v1/protect",
				api.ProtectRequest{Table: wire, Key: key, Output: output}, &prot)
			if status != http.StatusOK {
				t.Fatalf("protect: %d\n%s", status, raw)
			}
			if prot.Version != api.Version {
				t.Fatalf("version %q", prot.Version)
			}
			if prot.Stats.Rows != tbl.NumRows() || prot.Stats.BitsEmbedded == 0 {
				t.Fatalf("implausible stats: %+v", prot.Stats)
			}
			if output == api.OutputCSV && prot.Table.CSV == "" {
				t.Fatal("csv output requested but rows returned")
			}

			var det api.DetectResponse
			status, raw = postJSON(t, ts.URL+"/v1/detect",
				api.DetectRequest{Table: prot.Table, Provenance: prot.Provenance, Key: key}, &det)
			if status != http.StatusOK {
				t.Fatalf("detect: %d\n%s", status, raw)
			}
			if !det.Match {
				t.Fatalf("mark not detected over HTTP: loss=%v stats=%+v", det.MarkLoss, det.Stats)
			}

			// A different key must not match.
			var miss api.DetectResponse
			status, raw = postJSON(t, ts.URL+"/v1/detect",
				api.DetectRequest{Table: prot.Table, Provenance: prot.Provenance,
					Key: api.Key{Secret: "impostor", Eta: 25}}, &miss)
			if status != http.StatusOK {
				t.Fatalf("detect(impostor): %d\n%s", status, raw)
			}
			if miss.Match {
				t.Fatal("impostor key matched")
			}
		})
	}
}

func TestHTTPDispute(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 1200)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	owner := api.Key{Secret: "the rightful owner", Eta: 25}
	var prot api.ProtectResponse
	if status, raw := postJSON(t, ts.URL+"/v1/protect",
		api.ProtectRequest{Table: wire, Key: owner}, &prot); status != http.StatusOK {
		t.Fatalf("protect: %d\n%s", status, raw)
	}

	// The thief claims the protected table under their own key with a
	// fabricated statistic/mark.
	thiefMark, _, err := ownership.OwnerMark(tbl, "ssn", 1e6, 20)
	if err != nil {
		t.Fatal(err)
	}
	var disp api.DisputeResponse
	status, raw := postJSON(t, ts.URL+"/v1/dispute", api.DisputeRequest{
		Table:      prot.Table,
		Provenance: prot.Provenance,
		OwnerKey:   owner,
		Rivals: []api.RivalClaim{{
			Claimant: "thief",
			Key:      api.Key{Secret: "a thief", Eta: 25},
			V:        prot.Provenance.V,
			Mark:     thiefMark.String(),
		}},
	}, &disp)
	if status != http.StatusOK {
		t.Fatalf("dispute: %d\n%s", status, raw)
	}
	if len(disp.Verdicts) != 2 {
		t.Fatalf("got %d verdicts", len(disp.Verdicts))
	}
	if !disp.Verdicts[0].Valid || disp.Verdicts[0].Claimant != "owner" {
		t.Fatalf("owner claim rejected: %+v", disp.Verdicts[0])
	}
	if disp.Verdicts[1].Valid {
		t.Fatalf("thief claim accepted: %+v", disp.Verdicts[1])
	}

	// A provenance without a quantum is the client's fault: 400
	// bad_provenance, not 500 internal.
	bad := prot.Provenance
	bad.Quantum = 0
	status, raw = postJSON(t, ts.URL+"/v1/dispute", api.DisputeRequest{Table: prot.Table, Provenance: bad, OwnerKey: owner}, nil)
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusBadRequest || e.Error.Code != api.CodeBadProvenance {
		t.Fatalf("quantum-0 dispute: %d %s", status, raw)
	}
}

// TestHTTPDisputeNegativeDuplication: a rival claim's duplication is
// 0 (the provenance's) or a replication factor; a negative one is the
// client's malformed request.
func TestHTTPDisputeNegativeDuplication(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	wire, err := api.EncodeTable(testTable(t, 200), api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	owner := api.Key{Secret: "the rightful owner", Eta: 25}
	var prot api.ProtectResponse
	if status, raw := postJSON(t, ts.URL+"/v1/protect",
		api.ProtectRequest{Table: wire, Key: owner}, &prot); status != http.StatusOK {
		t.Fatalf("protect: %d\n%s", status, raw)
	}
	status, raw := postJSON(t, ts.URL+"/v1/dispute", api.DisputeRequest{
		Table:      prot.Table,
		Provenance: prot.Provenance,
		OwnerKey:   owner,
		Rivals: []api.RivalClaim{{
			Claimant:    "rival",
			Key:         api.Key{Secret: "a rival", Eta: 25},
			V:           prot.Provenance.V,
			Mark:        prot.Provenance.Mark,
			Duplication: -1,
		}},
	}, nil)
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusBadRequest || e.Error.Code != api.CodeBadRequest {
		t.Fatalf("negative rival duplication: %d %s", status, raw)
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 10}, MaxInflight: 3})
	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != api.Version || h.Capacity != 3 {
		t.Fatalf("healthz body: %+v", h)
	}
}

// TestErrorMapping pins the sentinel→HTTP contract: classification runs
// on errors.Is, and the body carries the machine code.
func TestErrorMapping(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 60)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}

	codeOf := func(raw []byte) string {
		var e api.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("non-envelope error body: %s", raw)
		}
		return e.Error.Code
	}

	// Malformed JSON → bad_request.
	r, err := http.Post(ts.URL+"/v1/protect", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest || codeOf(buf.Bytes()) != api.CodeBadRequest {
		t.Fatalf("malformed JSON: %d %s", r.StatusCode, buf.String())
	}

	// Missing key → bad_request.
	status, raw := postJSON(t, ts.URL+"/v1/protect", api.ProtectRequest{Table: wire}, nil)
	if status != http.StatusBadRequest || codeOf(raw) != api.CodeBadRequest {
		t.Fatalf("missing key: %d %s", status, raw)
	}

	// 60 rows at k=500 → unsatisfiable → 422.
	k := 500
	status, raw = postJSON(t, ts.URL+"/v1/protect", api.ProtectRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10}, Options: &api.Options{K: k},
	}, nil)
	if status != http.StatusUnprocessableEntity || codeOf(raw) != api.CodeUnsatisfiable {
		t.Fatalf("unsatisfiable: %d %s", status, raw)
	}

	// Provenance naming an unknown column → bad_provenance.
	status, raw = postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10},
		Provenance: core.Provenance{
			IdentCol: "ssn", K: 5, Mark: "0101", Duplication: 4,
			Columns: map[string]core.ColumnProvenance{"no_such": {}},
		},
	}, nil)
	if status != http.StatusBadRequest || codeOf(raw) != api.CodeBadProvenance {
		t.Fatalf("bad provenance: %d %s", status, raw)
	}

	// Options the pipeline would misread are refused up front: a loss
	// threshold of 0.9 would let a wrong key's ~50% loss match, and a
	// negative ε reached the binning search.
	var prot api.ProtectResponse
	status, raw = postJSON(t, ts.URL+"/v1/protect", api.ProtectRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10}, Options: &api.Options{K: 5},
	}, &prot)
	if status != http.StatusOK {
		t.Fatalf("protect: %d %s", status, raw)
	}
	loose := 0.9
	status, raw = postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{
		Table: prot.Table, Provenance: prot.Provenance, Key: api.Key{Secret: "wrong", Eta: 10},
		Options: &api.Options{LossThreshold: &loose},
	}, nil)
	if status != http.StatusBadRequest || codeOf(raw) != api.CodeBadConfig {
		t.Fatalf("loss threshold 0.9: %d %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10}, Options: &api.Options{K: 5, Epsilon: -3},
	}, nil)
	if status != http.StatusBadRequest || codeOf(raw) != api.CodeBadConfig {
		t.Fatalf("negative epsilon: %d %s", status, raw)
	}

	// Unknown output format fails before the pipeline runs.
	status, raw = postJSON(t, ts.URL+"/v1/protect", api.ProtectRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10}, Output: "xml",
	}, nil)
	if status != http.StatusBadRequest || codeOf(raw) != api.CodeBadRequest {
		t.Fatalf("bad output: %d %s", status, raw)
	}

	// Excessive enum_limit override is rejected, and a huge workers
	// override is clamped (request still succeeds).
	status, raw = postJSON(t, ts.URL+"/v1/protect", api.ProtectRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10},
		Options: &api.Options{EnumLimit: 1 << 30},
	}, nil)
	if status != http.StatusBadRequest || codeOf(raw) != api.CodeBadRequest {
		t.Fatalf("enum_limit cap: %d %s", status, raw)
	}
	big := 1_000_000
	status, raw = postJSON(t, ts.URL+"/v1/protect", api.ProtectRequest{
		Table: wire, Key: api.Key{Secret: "s", Eta: 10},
		Options: &api.Options{K: 5, Workers: &big},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("clamped workers: %d %s", status, raw)
	}

	// Unknown route and wrong method.
	r2, err := http.Get(ts.URL + "/v1/protect")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/protect: %d", r2.StatusCode)
	}
}

// TestBodyTooLarge: a body over MaxBodyBytes maps to 413/payload_too_large.
func TestBodyTooLarge(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, MaxBodyBytes: 1024})
	tbl := testTable(t, 200)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/protect",
		api.ProtectRequest{Table: wire, Key: api.Key{Secret: "s", Eta: 10}}, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", status, raw)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != api.CodePayloadTooLarge {
		t.Fatalf("oversized body code: %s", raw)
	}
}

// TestRequestDeadline: a server-side per-request timeout far below the
// pipeline's runtime must abort the run with 504/deadline_exceeded.
func TestRequestDeadline(t *testing.T) {
	ts := testServer(t, Config{
		Defaults:       core.Config{K: 15, AutoEpsilon: true},
		RequestTimeout: 5 * time.Millisecond,
	})
	tbl := testTable(t, 20_000)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/protect",
		api.ProtectRequest{Table: wire, Key: api.Key{Secret: "s", Eta: 25}}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d %s", status, raw)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != api.CodeDeadlineExceeded {
		t.Fatalf("deadline code: %s", raw)
	}
}

// TestCancelledRequestAbortsPipeline is the acceptance criterion: a
// client that disconnects mid-protect aborts the pipeline promptly and
// leaks no goroutines (the -race run also proves the teardown clean).
func TestCancelledRequestAbortsPipeline(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 20, AutoEpsilon: true}})
	tbl := testTable(t, 20_000)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ProtectRequest{Table: wire, Key: api.Key{Secret: "s", Eta: 25}})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/protect", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded despite cancellation (status %d)", resp.StatusCode)
		}
		done <- err
	}()
	// Give the server a moment to start the pipeline, then walk away.
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("expected a client-side cancellation error")
	}

	// The server-side pipeline goroutines must wind down promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancellation: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The server stays fully serviceable afterwards.
	var prot api.ProtectResponse
	small := testTable(t, 800)
	smallWire, err := api.EncodeTable(small, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/protect",
		api.ProtectRequest{Table: smallWire, Key: api.Key{Secret: "s", Eta: 25}}, &prot)
	if status != http.StatusOK {
		t.Fatalf("post-cancel protect: %d\n%s", status, raw)
	}
}

// TestInflightSemaphore: with capacity 1 and the slot held, a pipeline
// request waits for capacity until its deadline and fails with
// deadline_exceeded; once the slot frees it succeeds. healthz bypasses
// the semaphore and keeps answering throughout.
func TestInflightSemaphore(t *testing.T) {
	// The timeout must be long enough for a 300-row protect under -race,
	// yet short enough that the queued-request half stays quick.
	s, err := New(Config{
		Defaults:       core.Config{K: 15, AutoEpsilon: true},
		MaxInflight:    1,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	small := testTable(t, 300)
	smallWire, err := api.EncodeTable(small, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	req := api.ProtectRequest{Table: smallWire, Key: api.Key{Secret: "s", Eta: 25}}

	s.sem <- struct{}{} // occupy the sole slot
	status, raw := postJSON(t, ts.URL+"/v1/protect", req, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queued request: %d %s", status, raw)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != api.CodeOverloaded {
		t.Fatalf("queued request code: %s", raw)
	}

	// healthz does not take the semaphore and reports the saturation.
	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || h.Inflight != 1 || h.Capacity != 1 {
		t.Fatalf("healthz under load: %d %+v", r.StatusCode, h)
	}

	<-s.sem // free the slot
	if status, raw := postJSON(t, ts.URL+"/v1/protect", req, nil); status != http.StatusOK {
		t.Fatalf("after release: %d %s", status, raw)
	}
}
