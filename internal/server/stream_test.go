package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// streamHeaders builds the request headers of one streaming call.
func streamHeaders(t *testing.T, plan *core.Plan, schema *relation.Schema, secret string, eta uint64, chunk int) http.Header {
	t.Helper()
	planJSON, err := api.EncodePlanHeader(plan)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]api.Column, schema.NumColumns())
	for i := 0; i < schema.NumColumns(); i++ {
		c := schema.Column(i)
		cols[i] = api.Column{Name: c.Name, Kind: c.Kind.String()}
	}
	schemaJSON, err := json.Marshal(cols)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Header{}
	h.Set("Content-Type", api.ContentTypeCSV)
	h.Set(api.PlanHeader, planJSON)
	h.Set(api.SchemaHeader, string(schemaJSON))
	h.Set(api.SecretHeader, secret)
	h.Set(api.EtaHeader, strconv.FormatUint(eta, 10))
	if chunk > 0 {
		h.Set(api.ChunkHeader, strconv.Itoa(chunk))
	}
	return h
}

// postCSV fires one streaming request and returns the response with its
// body fully read (so trailers are populated).
func postCSV(t *testing.T, url string, h http.Header, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header = h
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func csvBytes(t *testing.T, tbl *relation.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPApplyStream drives the streaming /v1/apply end to end: CSV
// body in, protected CSV out, byte-identical to the in-memory apply,
// with the effective plan and run stats in the trailers.
func TestHTTPApplyStream(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("stream secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.Apply(tbl, plan, key)
	if err != nil {
		t.Fatal(err)
	}
	want := csvBytes(t, prot.Table)

	h := streamHeaders(t, plan, tbl.Schema(), "stream secret", 25, 128)
	resp, got := postCSV(t, ts.URL+"/v1/apply", h, csvBytes(t, tbl))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply stream: %d\n%s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.ContentTypeCSV {
		t.Fatalf("Content-Type = %q", ct)
	}
	if e := resp.Trailer.Get(api.ErrorTrailer); e != "" {
		t.Fatalf("unexpected error trailer: %s", e)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed CSV differs from the in-memory apply")
	}
	var stats api.StreamStats
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.StatsTrailer)), &stats); err != nil {
		t.Fatalf("stats trailer: %v", err)
	}
	if stats.Rows != prot.Table.NumRows() || stats.BitsEmbedded == 0 {
		t.Fatalf("implausible stream stats: %+v", stats)
	}
	effPlan, err := api.DecodePlanHeader(resp.Trailer.Get(api.PlanHeader))
	if err != nil {
		t.Fatalf("plan trailer: %v", err)
	}
	if effPlan.Rows != prot.Plan.Rows || len(effPlan.Bins) != len(prot.Plan.Bins) {
		t.Fatalf("effective plan diverged: rows %d/%d bins %d/%d",
			effPlan.Rows, prot.Plan.Rows, len(effPlan.Bins), len(prot.Plan.Bins))
	}

	// The JSON mode of the same endpoint returns the same table.
	wire, err := api.EncodeTable(tbl, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	var applied api.ApplyResponse
	status, raw := postJSON(t, ts.URL+"/v1/apply", api.ApplyRequest{
		Table: wire, Plan: *plan, Key: api.Key{Secret: "stream secret", Eta: 25}, Output: api.OutputCSV,
	}, &applied)
	if status != http.StatusOK {
		t.Fatalf("apply json: %d\n%s", status, raw)
	}
	if applied.Table.CSV != string(want) {
		t.Fatal("JSON-mode apply differs from the in-memory apply")
	}
}

// TestHTTPAppendStream drives the streaming /v1/append: the delta CSV
// is protected under the frozen plan, and the advanced plan rides the
// trailer for the next batch.
func TestHTTPAppendStream(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	all := testTable(t, 2000)
	base, err := all.Slice(0, 1600)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(1600, 2000)
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("append secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.Protect(base, key)
	if err != nil {
		t.Fatal(err)
	}
	app, err := fw.Append(delta, &prot.Plan, key)
	if err != nil {
		t.Fatal(err)
	}

	h := streamHeaders(t, &prot.Plan, delta.Schema(), "append secret", 25, 97)
	resp, got := postCSV(t, ts.URL+"/v1/append", h, csvBytes(t, delta))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append stream: %d\n%s", resp.StatusCode, got)
	}
	if e := resp.Trailer.Get(api.ErrorTrailer); e != "" {
		t.Fatalf("unexpected error trailer: %s", e)
	}
	if want := csvBytes(t, app.Table); !bytes.Equal(got, want) {
		t.Fatal("streamed delta differs from the in-memory append")
	}
	advanced, err := api.DecodePlanHeader(resp.Trailer.Get(api.PlanHeader))
	if err != nil {
		t.Fatalf("plan trailer: %v", err)
	}
	if advanced.Rows != app.Plan.Rows || len(advanced.Bins) != len(app.Plan.Bins) {
		t.Fatalf("advanced plan diverged: rows %d/%d bins %d/%d",
			advanced.Rows, app.Plan.Rows, len(advanced.Bins), len(app.Plan.Bins))
	}
}

// TestHTTPStreamBeyondBodyCap is the point of the streaming mode: a CSV
// body several times MaxBodyBytes passes — metered per segment — while
// the same payload is rejected whole by the JSON mode's cap, and a
// single segment larger than the cap still yields 413.
func TestHTTPStreamBeyondBodyCap(t *testing.T) {
	ts := testServer(t, Config{
		Defaults:     core.Config{K: 15, AutoEpsilon: true},
		MaxBodyBytes: 16 << 10,
	})
	tbl := testTable(t, 2000) // ~100 KiB of CSV, >> the 16 KiB cap
	key := crypt.NewWatermarkKeyFromSecret("cap secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	body := csvBytes(t, tbl)
	if int64(len(body)) <= 4*(16<<10) {
		t.Fatalf("fixture too small to exercise the cap: %d bytes", len(body))
	}

	// Small segments: every segment fits the cap, the whole body passes.
	h := streamHeaders(t, plan, tbl.Schema(), "cap secret", 25, 64)
	resp, got := postCSV(t, ts.URL+"/v1/apply", h, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed body beyond the cap: %d\n%s", resp.StatusCode, got)
	}
	if e := resp.Trailer.Get(api.ErrorTrailer); e != "" {
		t.Fatalf("unexpected error trailer: %s", e)
	}

	// One giant segment: the first segment blows the per-segment budget
	// before any output, so the ordinary 413 envelope applies.
	h = streamHeaders(t, plan, tbl.Schema(), "cap secret", 25, 1<<19)
	resp, got = postCSV(t, ts.URL+"/v1/apply", h, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized segment: %d\n%s", resp.StatusCode, got)
	}
	var envelope api.ErrorResponse
	if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code != api.CodePayloadTooLarge {
		t.Fatalf("oversized segment envelope: %s", got)
	}

	// The JSON mode on the same route keeps the whole-body cap.
	wire, err := api.EncodeTable(tbl, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/apply", api.ApplyRequest{
		Table: wire, Plan: *plan, Key: api.Key{Secret: "cap secret", Eta: 25},
	}, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("json mode ignored the body cap: %d\n%s", status, raw)
	}
}

// TestHTTPStreamBadRequests covers the pre-stream failures: they keep
// the ordinary status + JSON error envelope.
func TestHTTPStreamBadRequests(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 200)
	key := crypt.NewWatermarkKeyFromSecret("bad secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	body := csvBytes(t, tbl)
	good := func() http.Header { return streamHeaders(t, plan, tbl.Schema(), "bad secret", 25, 0) }

	cases := []struct {
		name   string
		mutate func(http.Header)
	}{
		{"missing plan", func(h http.Header) { h.Del(api.PlanHeader) }},
		{"mangled plan", func(h http.Header) { h.Set(api.PlanHeader, "{") }},
		{"missing schema", func(h http.Header) { h.Del(api.SchemaHeader) }},
		{"missing secret", func(h http.Header) { h.Del(api.SecretHeader) }},
		{"zero eta", func(h http.Header) { h.Set(api.EtaHeader, "0") }},
		{"bad chunk", func(h http.Header) { h.Set(api.ChunkHeader, "-3") }},
		{"chunk beyond cap", func(h http.Header) { h.Set(api.ChunkHeader, "9999999") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := good()
			tc.mutate(h)
			resp, got := postCSV(t, ts.URL+"/v1/apply", h, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d\n%s", resp.StatusCode, got)
			}
			var envelope api.ErrorResponse
			if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code != api.CodeBadRequest {
				t.Fatalf("envelope: %s", got)
			}
		})
	}
}

// TestHTTPStreamMidBodyError pins the trailer error contract: a verdict
// that only exists at end-of-stream (plan drift on a thin new bin)
// arrives after the 200 status and the body, as api.ErrorTrailer.
func TestHTTPStreamMidBodyError(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	all := testTable(t, 2000)
	base, err := all.Slice(0, 1600)
	if err != nil {
		t.Fatal(err)
	}
	// A small delta batch makes a thin bin (under k rows of its own)
	// near-certain, which the doctored plan below turns into drift.
	delta, err := all.Slice(1600, 1700)
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("drift secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.Protect(base, key)
	if err != nil {
		t.Fatal(err)
	}
	app, err := fw.Append(delta, &prot.Plan, key)
	if err != nil {
		t.Fatal(err)
	}
	// Doctor the plan: hide one thin delta bin from the published
	// record, so the streamed batch appears to open it below k.
	deltaBins, err := anonymity.Bins(app.Table, delta.Schema().QuasiColumns())
	if err != nil {
		t.Fatal(err)
	}
	thin := ""
	for bin, n := range deltaBins {
		if n < prot.Plan.K {
			thin = bin
			break
		}
	}
	if thin == "" {
		t.Skip("every delta bin holds >= k rows; fixture cannot drift")
	}
	doctored := prot.Plan
	doctored.Bins = make(map[string]int, len(prot.Plan.Bins))
	for bin, n := range prot.Plan.Bins {
		if bin != thin {
			doctored.Bins[bin] = n
		}
	}

	h := streamHeaders(t, &doctored, delta.Schema(), "drift secret", 25, 50)
	resp, got := postCSV(t, ts.URL+"/v1/append", h, csvBytes(t, delta))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-body verdicts cannot change the status: %d\n%s", resp.StatusCode, got)
	}
	if len(got) == 0 {
		t.Fatal("expected a partial body before the verdict")
	}
	var wireErr api.Error
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ErrorTrailer)), &wireErr); err != nil {
		t.Fatalf("error trailer: %v (%q)", err, resp.Trailer.Get(api.ErrorTrailer))
	}
	if wireErr.Code != api.CodePlanDrift {
		t.Fatalf("error trailer code = %q, want %q (%s)", wireErr.Code, api.CodePlanDrift, wireErr.Message)
	}
	if !strings.Contains(wireErr.Message, "re-plan") {
		t.Fatalf("verdict lost its remedy: %s", wireErr.Message)
	}
	if resp.Trailer.Get(api.StatsTrailer) != "" {
		t.Fatal("failed stream must not report stats")
	}
}

// planStreamHeaders is streamHeaders without the PlanHeader: the
// planning mode computes the plan.
func planStreamHeaders(t *testing.T, schema *relation.Schema, secret string, eta uint64, chunk int) http.Header {
	t.Helper()
	cols := make([]api.Column, schema.NumColumns())
	for i := 0; i < schema.NumColumns(); i++ {
		c := schema.Column(i)
		cols[i] = api.Column{Name: c.Name, Kind: c.Kind.String()}
	}
	schemaJSON, err := json.Marshal(cols)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Header{}
	h.Set("Content-Type", api.ContentTypeCSV)
	h.Set(api.SchemaHeader, string(schemaJSON))
	h.Set(api.SecretHeader, secret)
	h.Set(api.EtaHeader, strconv.FormatUint(eta, 10))
	if chunk > 0 {
		h.Set(api.ChunkHeader, strconv.Itoa(chunk))
	}
	return h
}

// TestHTTPPlanStream drives the streaming /v1/plan end to end: CSV body
// in, empty body out, and the computed plan — identical to the
// in-memory PlanContext's — in the PlanHeader trailer beside a
// PlanStreamStats summary.
func TestHTTPPlanStream(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("plan secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := core.MarshalPlan(want)
	if err != nil {
		t.Fatal(err)
	}

	h := planStreamHeaders(t, tbl.Schema(), "plan secret", 25, 128)
	resp, got := postCSV(t, ts.URL+"/v1/plan", h, csvBytes(t, tbl))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan stream: %d\n%s", resp.StatusCode, got)
	}
	if len(got) != 0 {
		t.Fatalf("plan mode must not emit a body, got %d bytes", len(got))
	}
	planned, err := api.DecodePlanHeader(resp.Trailer.Get(api.PlanHeader))
	if err != nil {
		t.Fatalf("plan trailer: %v", err)
	}
	gotJSON, err := core.MarshalPlan(planned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("streamed plan differs from PlanContext:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	var stats api.PlanStreamStats
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.StatsTrailer)), &stats); err != nil {
		t.Fatalf("stats trailer: %v (%q)", err, resp.Trailer.Get(api.StatsTrailer))
	}
	if stats.Rows != tbl.NumRows() || stats.Segments != (tbl.NumRows()+127)/128 ||
		stats.K != want.K || stats.EffectiveK != want.EffectiveK || stats.AvgLoss != want.AvgLoss {
		t.Fatalf("implausible plan stream stats: %+v", stats)
	}

	// The JSON mode with a CSV-sourced table streams through the same
	// planner and returns the same plan document.
	wire, err := api.EncodeTable(tbl, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON api.PlanResponse
	status, raw := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{
		Table: wire, Key: api.Key{Secret: "plan secret", Eta: 25},
	}, &viaJSON)
	if status != http.StatusOK {
		t.Fatalf("plan json: %d\n%s", status, raw)
	}
	jsonPlanJSON, err := core.MarshalPlan(&viaJSON.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonPlanJSON, wantJSON) {
		t.Fatal("JSON-mode CSV-sourced plan differs from PlanContext")
	}
	if viaJSON.Stats.Rows != tbl.NumRows() {
		t.Fatalf("json stats rows = %d, want %d", viaJSON.Stats.Rows, tbl.NumRows())
	}
}

// TestHTTPPlanStreamErrors: the plan mode writes nothing before the
// pass completes, so even data errors discovered deep in the body keep
// the ordinary status + JSON envelope — no ErrorTrailer.
func TestHTTPPlanStreamErrors(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 300)
	body := csvBytes(t, tbl)

	// Pre-stream failures.
	for _, tc := range []struct {
		name   string
		mutate func(http.Header)
	}{
		{"missing schema", func(h http.Header) { h.Del(api.SchemaHeader) }},
		{"missing secret", func(h http.Header) { h.Del(api.SecretHeader) }},
		{"zero eta", func(h http.Header) { h.Set(api.EtaHeader, "0") }},
		{"bad chunk", func(h http.Header) { h.Set(api.ChunkHeader, "-3") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := planStreamHeaders(t, tbl.Schema(), "plan secret", 25, 0)
			tc.mutate(h)
			resp, got := postCSV(t, ts.URL+"/v1/plan", h, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d\n%s", resp.StatusCode, got)
			}
			var envelope api.ErrorResponse
			if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code != api.CodeBadRequest {
				t.Fatalf("envelope: %s", got)
			}
		})
	}

	// A malformed record midway through the body: still the ordinary
	// envelope (an error status and a JSON body, never an ErrorTrailer),
	// since the plan mode commits no early bytes.
	t.Run("mid-body csv error", func(t *testing.T) {
		lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
		lines[len(lines)/2] = "not,enough"
		h := planStreamHeaders(t, tbl.Schema(), "plan secret", 25, 32)
		resp, got := postCSV(t, ts.URL+"/v1/plan", h, []byte(strings.Join(lines, "\n")+"\n"))
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("bad CSV planned successfully:\n%s", got)
		}
		var envelope api.ErrorResponse
		if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code == "" {
			t.Fatalf("envelope: %s", got)
		}
		if !strings.Contains(envelope.Error.Message, "reading segment") {
			t.Fatalf("error lost the segment context: %s", envelope.Error.Message)
		}
		if e := resp.Trailer.Get(api.ErrorTrailer); e != "" {
			t.Fatalf("plan mode must not use the error trailer: %s", e)
		}
	})
}

// TestHTTPApplyBelowKUnsatisfiable applies a plan to a table too small
// for its frontiers: both modes of /v1/apply classify the k+ε violation
// as unsatisfiable — the JSON mode with a 422 envelope, the text/csv
// mode in the error trailer, since its verdict follows the body.
func TestHTTPApplyBelowKUnsatisfiable(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 20, AutoEpsilon: true}})
	big, err := datagen.Generate(datagen.Config{Rows: 5000, Seed: 7, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	small, err := datagen.Generate(datagen.Config{Rows: 60, Seed: 8, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("below k", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.PlanContext(context.Background(), big, key)
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

	wire, err := api.EncodeTable(small, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/apply", api.ApplyRequest{
		Table: wire, Plan: *plan, Key: api.Key{Secret: "below k", Eta: 25},
	}, nil)
	if status != http.StatusUnprocessableEntity || codeOf(raw) != api.CodeUnsatisfiable {
		t.Fatalf("json mode: %d %s", status, raw)
	}

	h := streamHeaders(t, plan, small.Schema(), "below k", 25, 0)
	resp, _ := postCSV(t, ts.URL+"/v1/apply", h, csvBytes(t, small))
	var wireErr api.Error
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ErrorTrailer)), &wireErr); err != nil {
		t.Fatalf("csv mode error trailer: %v (%q)", err, resp.Trailer.Get(api.ErrorTrailer))
	}
	if wireErr.Code != api.CodeUnsatisfiable {
		t.Fatalf("csv mode error trailer code = %q, want %q (%s)", wireErr.Code, api.CodeUnsatisfiable, wireErr.Message)
	}
}
