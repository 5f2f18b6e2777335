package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/jobs"
	"repro/internal/ontology"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/tenant"
)

// This file covers the read side of the streaming surface: text/csv
// POST /v1/detect and /v1/traceback (body-less responses, verdict in
// the ResultTrailer), the CSV-sourced JSON mode riding the same stream
// cores, the streaming fingerprint fan-out behind Output=csv, the
// configurable /v1/fingerprint recipient cap and the async detect job
// kind.

// detectStreamHeaders is planStreamHeaders plus the provenance record a
// streaming detect runs under.
func detectStreamHeaders(t *testing.T, h http.Header, prov core.Provenance) http.Header {
	t.Helper()
	provJSON, err := json.Marshal(prov)
	if err != nil {
		t.Fatal(err)
	}
	h.Set(api.ProvenanceHeader, string(provJSON))
	return h
}

// tracebackStreamHeaders builds a streaming /v1/traceback request:
// schema + master secret only — the candidates come from the registry,
// so there is no eta and no provenance.
func tracebackStreamHeaders(t *testing.T, cols []api.Column, secret string, chunk int) http.Header {
	t.Helper()
	schemaJSON, err := json.Marshal(cols)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Header{}
	h.Set("Content-Type", api.ContentTypeCSV)
	h.Set(api.SchemaHeader, string(schemaJSON))
	h.Set(api.SecretHeader, secret)
	if chunk > 0 {
		h.Set(api.ChunkHeader, strconv.Itoa(chunk))
	}
	return h
}

// TestHTTPDetectStream drives the streaming /v1/detect end to end: the
// suspect CSV goes up segment-at-a-time, the body comes back empty, and
// the verdict document in the ResultTrailer is identical to the JSON
// mode's — for the marked copy and for an unmarked original.
func TestHTTPDetectStream(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 1500)
	key := crypt.NewWatermarkKeyFromSecret("detect stream secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}

	wire, err := api.EncodeTable(prot.Table, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	var want api.DetectResponse
	status, raw := postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{
		Table:      wire,
		Provenance: prot.Provenance,
		Key:        api.Key{Secret: "detect stream secret", Eta: 25},
	}, &want)
	if status != http.StatusOK {
		t.Fatalf("detect json: %d\n%s", status, raw)
	}
	if !want.Match {
		t.Fatalf("in-memory detect missed its own mark: %+v", want)
	}

	h := detectStreamHeaders(t, planStreamHeaders(t, tbl.Schema(), "detect stream secret", 25, 128), prot.Provenance)
	resp, got := postCSV(t, ts.URL+"/v1/detect", h, csvBytes(t, prot.Table))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect stream: %d\n%s", resp.StatusCode, got)
	}
	if len(got) != 0 {
		t.Fatalf("detect mode must not emit a body, got %d bytes", len(got))
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.ContentTypeCSV {
		t.Fatalf("Content-Type = %q", ct)
	}
	var streamed api.DetectResponse
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ResultTrailer)), &streamed); err != nil {
		t.Fatalf("result trailer: %v (%q)", err, resp.Trailer.Get(api.ResultTrailer))
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("streamed verdict differs from the JSON mode:\n got: %+v\nwant: %+v", streamed, want)
	}
	var stats api.ReadStreamStats
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.StatsTrailer)), &stats); err != nil {
		t.Fatalf("stats trailer: %v (%q)", err, resp.Trailer.Get(api.StatsTrailer))
	}
	rows := prot.Table.NumRows()
	if stats.Rows != rows || stats.Segments != (rows+127)/128 {
		t.Fatalf("implausible read stream stats: %+v", stats)
	}

	// The JSON mode with a CSV-sourced table runs the same stream core
	// and answers with the identical document.
	csvWire, err := api.EncodeTable(prot.Table, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	var viaCSV api.DetectResponse
	status, raw = postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{
		Table:      csvWire,
		Provenance: prot.Provenance,
		Key:        api.Key{Secret: "detect stream secret", Eta: 25},
	}, &viaCSV)
	if status != http.StatusOK {
		t.Fatalf("detect json over csv: %d\n%s", status, raw)
	}
	if !reflect.DeepEqual(viaCSV, want) {
		t.Fatalf("CSV-sourced JSON verdict differs:\n got: %+v\nwant: %+v", viaCSV, want)
	}

	// Streaming the unmarked original under the same provenance must
	// come back negative — on both modes, identically.
	var wantClean api.DetectResponse
	cleanWire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	status, raw = postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{
		Table:      cleanWire,
		Provenance: prot.Provenance,
		Key:        api.Key{Secret: "detect stream secret", Eta: 25},
	}, &wantClean)
	if status != http.StatusOK {
		t.Fatalf("clean detect json: %d\n%s", status, raw)
	}
	h = detectStreamHeaders(t, planStreamHeaders(t, tbl.Schema(), "detect stream secret", 25, 64), prot.Provenance)
	resp, got = postCSV(t, ts.URL+"/v1/detect", h, csvBytes(t, tbl))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean detect stream: %d\n%s", resp.StatusCode, got)
	}
	var streamedClean api.DetectResponse
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ResultTrailer)), &streamedClean); err != nil {
		t.Fatalf("result trailer: %v", err)
	}
	if !reflect.DeepEqual(streamedClean, wantClean) {
		t.Fatalf("clean verdicts diverge:\n got: %+v\nwant: %+v", streamedClean, wantClean)
	}
}

// TestHTTPDetectStreamErrors: read-side streaming failures never use
// the ErrorTrailer — nothing is written before the verdict, so every
// failure keeps the ordinary status + JSON envelope.
func TestHTTPDetectStreamErrors(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 200)
	key := crypt.NewWatermarkKeyFromSecret("detect err secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	body := csvBytes(t, prot.Table)
	good := func() http.Header {
		return detectStreamHeaders(t, planStreamHeaders(t, tbl.Schema(), "detect err secret", 25, 0), prot.Provenance)
	}

	cases := []struct {
		name   string
		mutate func(http.Header)
	}{
		{"missing provenance", func(h http.Header) { h.Del(api.ProvenanceHeader) }},
		{"mangled provenance", func(h http.Header) { h.Set(api.ProvenanceHeader, "{") }},
		{"missing schema", func(h http.Header) { h.Del(api.SchemaHeader) }},
		{"missing secret", func(h http.Header) { h.Del(api.SecretHeader) }},
		{"zero eta", func(h http.Header) { h.Set(api.EtaHeader, "0") }},
		{"bad chunk", func(h http.Header) { h.Set(api.ChunkHeader, "-3") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := good()
			tc.mutate(h)
			resp, got := postCSV(t, ts.URL+"/v1/detect", h, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d\n%s", resp.StatusCode, got)
			}
			var envelope api.ErrorResponse
			if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code != api.CodeBadRequest {
				t.Fatalf("envelope: %s", got)
			}
			if e := resp.Trailer.Get(api.ErrorTrailer); e != "" {
				t.Fatalf("read side must not use the error trailer: %s", e)
			}
		})
	}

	// A malformed record midway through the suspect: still the ordinary
	// envelope, with the segment context preserved and the reader's
	// error text verbatim.
	for _, tc := range []struct {
		name   string
		record func(string) string
		want   string
	}{
		{"mid-body csv error", func(string) string { return "not,enough" },
			"core: reading segment 0: relation: line 101: record on line 101: wrong number of fields"},
		{"mid-body bare quote", func(rec string) string { return "a\"b" + rec },
			"core: reading segment 0: relation: line 101: parse error on line 101, column 2: bare \" in non-quoted-field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
			lines[len(lines)/2] = tc.record(lines[len(lines)/2])
			resp, got := postCSV(t, ts.URL+"/v1/detect", good(), []byte(strings.Join(lines, "\n")+"\n"))
			if resp.StatusCode == http.StatusOK {
				t.Fatalf("bad CSV detected successfully:\n%s", got)
			}
			var envelope api.ErrorResponse
			if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code == "" {
				t.Fatalf("envelope: %s", got)
			}
			if envelope.Error.Message != tc.want {
				t.Fatalf("message %q, want %q", envelope.Error.Message, tc.want)
			}
		})
	}
}

// missingColumnRelease protects a small table and returns its
// provenance plus the marked table without its age column, in wire form.
func missingColumnRelease(t *testing.T, secret string) (core.Provenance, api.Table) {
	t.Helper()
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ProtectContext(context.Background(), testTable(t, 200), crypt.NewWatermarkKeyFromSecret(secret, 25))
	if err != nil {
		t.Fatal(err)
	}
	var kept []relation.Column
	for i := range prot.Table.Schema().NumColumns() {
		if col := prot.Table.Schema().Column(i); col.Name != "age" {
			kept = append(kept, col)
		}
	}
	noAge, err := prot.Table.Project(relation.MustSchema(kept...))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := api.EncodeTable(noAge, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	return prot.Provenance, wire
}

// TestHTTPDetectMissingColumn: a suspect that lacks a watermarked
// column is the client's schema mismatch — 400 bad_schema, not a 500.
func TestHTTPDetectMissingColumn(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	prov, wire := missingColumnRelease(t, "missing column secret")
	status, raw := postJSON(t, ts.URL+"/v1/detect", api.DetectRequest{
		Table:      wire,
		Provenance: prov,
		Key:        api.Key{Secret: "missing column secret", Eta: 25},
	}, nil)
	var envelope api.ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil || status != http.StatusBadRequest || envelope.Error.Code != api.CodeBadSchema {
		t.Fatalf("detect without a watermarked column: %d\n%s", status, raw)
	}
}

// TestHTTPDisputeMissingColumn: a dispute over such a table is refused
// the same way, rather than judged with every claim "detection failed".
func TestHTTPDisputeMissingColumn(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	prov, wire := missingColumnRelease(t, "missing column secret")
	// A wrong secret decrypts no identifier, so no claim reaches
	// detection; the table is refused all the same.
	for _, secret := range []string{"missing column secret", "not the owner"} {
		status, raw := postJSON(t, ts.URL+"/v1/dispute", api.DisputeRequest{
			Table:      wire,
			Provenance: prov,
			OwnerKey:   api.Key{Secret: secret, Eta: 25},
		}, nil)
		var envelope api.ErrorResponse
		if err := json.Unmarshal(raw, &envelope); err != nil || status != http.StatusBadRequest || envelope.Error.Code != api.CodeBadSchema {
			t.Fatalf("dispute without a watermarked column, secret %q: %d\n%s", secret, status, raw)
		}
	}
}

// TestHTTPTracebackStream fingerprints a fleet with Output=csv (the
// streaming fan-out), then streams the leaked copy back through
// /v1/traceback: empty body, ranked verdicts in the ResultTrailer,
// identical to both JSON modes (rows table and CSV-sourced table).
func TestHTTPTracebackStream(t *testing.T) {
	reg := registry.New()
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, Registry: reg})
	tbl := testTable(t, 1200)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}

	var fp api.FingerprintResponse
	status, raw := postJSON(t, ts.URL+"/v1/fingerprint", api.FingerprintRequest{
		Table:  wire,
		Secret: "fleet master secret",
		Eta:    20,
		Recipients: []api.RecipientRef{
			{ID: "hospital-a"}, {ID: "hospital-b"}, {ID: "hospital-c"},
		},
		Output: api.OutputCSV,
	}, &fp)
	if status != http.StatusOK {
		t.Fatalf("fingerprint: %d\n%s", status, raw)
	}
	if len(fp.Recipients) != 3 || fp.Recipients[1].Table.CSV == "" {
		t.Fatalf("csv fingerprint response: %d recipients", len(fp.Recipients))
	}
	if len(reg.List()) != 3 {
		t.Fatalf("registry holds %d records", len(reg.List()))
	}
	leak := []byte(fp.Recipients[1].Table.CSV)

	// JSON mode over the in-memory rows table is the reference verdict;
	// the CSV-sourced JSON mode must agree with it.
	leakTbl, err := api.DecodeTable(fp.Recipients[1].Table)
	if err != nil {
		t.Fatal(err)
	}
	rowsWire, err := api.EncodeTable(leakTbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	var want api.TracebackResponse
	status, raw = postJSON(t, ts.URL+"/v1/traceback", api.TracebackRequest{
		Table: rowsWire, Secret: "fleet master secret",
	}, &want)
	if status != http.StatusOK {
		t.Fatalf("traceback json: %d\n%s", status, raw)
	}
	if want.Culprit != "hospital-b" || want.Matches != 1 {
		t.Fatalf("reference verdicts: %+v", want)
	}
	var viaCSV api.TracebackResponse
	status, raw = postJSON(t, ts.URL+"/v1/traceback", api.TracebackRequest{
		Table: fp.Recipients[1].Table, Secret: "fleet master secret",
	}, &viaCSV)
	if status != http.StatusOK {
		t.Fatalf("traceback json over csv: %d\n%s", status, raw)
	}
	if !reflect.DeepEqual(viaCSV, want) {
		t.Fatalf("CSV-sourced JSON verdicts differ:\n got: %+v\nwant: %+v", viaCSV, want)
	}

	// The streaming mode: suspect CSV up, verdict down in the trailer.
	h := tracebackStreamHeaders(t, fp.Recipients[1].Table.Columns, "fleet master secret", 128)
	resp, got := postCSV(t, ts.URL+"/v1/traceback", h, leak)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traceback stream: %d\n%s", resp.StatusCode, got)
	}
	if len(got) != 0 {
		t.Fatalf("traceback mode must not emit a body, got %d bytes", len(got))
	}
	var streamed api.TracebackResponse
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ResultTrailer)), &streamed); err != nil {
		t.Fatalf("result trailer: %v (%q)", err, resp.Trailer.Get(api.ResultTrailer))
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("streamed verdicts differ from the JSON mode:\n got: %+v\nwant: %+v", streamed, want)
	}
	var stats api.ReadStreamStats
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.StatsTrailer)), &stats); err != nil {
		t.Fatalf("stats trailer: %v", err)
	}
	if stats.Rows != tbl.NumRows() || stats.Segments != (tbl.NumRows()+127)/128 {
		t.Fatalf("implausible read stream stats: %+v", stats)
	}

	// Failures keep the ordinary envelope: wrong master secret is the
	// usual 403, an empty registry the usual 400.
	h = tracebackStreamHeaders(t, fp.Recipients[1].Table.Columns, "not the secret", 0)
	resp, got = postCSV(t, ts.URL+"/v1/traceback", h, leak)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong secret: %d\n%s", resp.StatusCode, got)
	}
	var envelope api.ErrorResponse
	if err := json.Unmarshal(got, &envelope); err != nil || envelope.Error.Code != api.CodeKeyMismatch {
		t.Fatalf("wrong-secret envelope: %s", got)
	}
	empty := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	h = tracebackStreamHeaders(t, fp.Recipients[1].Table.Columns, "fleet master secret", 0)
	resp, got = postCSV(t, empty.URL+"/v1/traceback", h, leak)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty registry: %d\n%s", resp.StatusCode, got)
	}
}

// TestHTTPFingerprintCSVOutput pins the streaming fan-out arm of
// /v1/fingerprint: Output=csv rides FingerprintStream (one shared
// transform, N CSV writers) and must be byte-identical to encoding the
// rows-mode copies, with the same provenance and registry effect.
func TestHTTPFingerprintCSVOutput(t *testing.T) {
	regRows, regCSV := registry.New(), registry.New()
	tsRows := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, Registry: regRows})
	tsCSV := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, Registry: regCSV})
	tbl := testTable(t, 900)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	req := api.FingerprintRequest{
		Table:  wire,
		Secret: "csv fleet secret",
		Eta:    15,
		Recipients: []api.RecipientRef{
			{ID: "clinic-x"}, {ID: "clinic-y"}, {ID: "clinic-z"},
		},
	}

	var viaRows api.FingerprintResponse
	status, raw := postJSON(t, tsRows.URL+"/v1/fingerprint", req, &viaRows)
	if status != http.StatusOK {
		t.Fatalf("fingerprint rows: %d\n%s", status, raw)
	}
	req.Output = api.OutputCSV
	var viaCSV api.FingerprintResponse
	status, raw = postJSON(t, tsCSV.URL+"/v1/fingerprint", req, &viaCSV)
	if status != http.StatusOK {
		t.Fatalf("fingerprint csv: %d\n%s", status, raw)
	}

	if len(viaCSV.Recipients) != len(viaRows.Recipients) {
		t.Fatalf("recipient counts differ: %d vs %d", len(viaCSV.Recipients), len(viaRows.Recipients))
	}
	for i, want := range viaRows.Recipients {
		got := viaCSV.Recipients[i]
		if got.ID != want.ID || got.KeyFingerprint != want.KeyFingerprint {
			t.Fatalf("recipient %d identity diverged: %s/%s", i, got.ID, want.ID)
		}
		rt, err := api.DecodeTable(want.Table)
		if err != nil {
			t.Fatal(err)
		}
		if got.Table.CSV != string(csvBytes(t, rt)) {
			t.Fatalf("recipient %s: streamed CSV differs from the rows-mode copy", got.ID)
		}
		if !reflect.DeepEqual(got.Provenance, want.Provenance) {
			t.Fatalf("recipient %s provenance diverged:\n got: %+v\nwant: %+v", got.ID, got.Provenance, want.Provenance)
		}
		if got.TuplesSelected != want.TuplesSelected || got.BitsEmbedded != want.BitsEmbedded ||
			got.CellsChanged != want.CellsChanged {
			t.Fatalf("recipient %s embed stats diverged: %+v vs %+v", got.ID, got, want)
		}
	}
	if viaCSV.Stats != viaRows.Stats {
		t.Fatalf("plan stats diverged: %+v vs %+v", viaCSV.Stats, viaRows.Stats)
	}
	if len(regCSV.List()) != 3 {
		t.Fatalf("csv path registered %d records", len(regCSV.List()))
	}
	recRows, _ := regRows.GetIn(tenant.DefaultID, "clinic-y")
	recCSV, ok := regCSV.GetIn(tenant.DefaultID, "clinic-y")
	if !ok || recCSV.KeyFingerprint != recRows.KeyFingerprint || recCSV.Plan.Rows != recRows.Plan.Rows {
		t.Fatalf("registry records diverged: %+v vs %+v", recCSV, recRows)
	}
}

// TestHTTPFingerprintRecipientCap pins the configurable batch cap: the
// default is 128 (the old hardwired 32 is gone), and an over-cap batch
// is refused with the too_many_recipients machine code before anything
// reaches the registry.
func TestHTTPFingerprintRecipientCap(t *testing.T) {
	s, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	if s.cfg.MaxFingerprintRecipients != 128 {
		t.Fatalf("default cap = %d, want 128", s.cfg.MaxFingerprintRecipients)
	}

	// 33 recipients — over the old hardwired 32 — pass under the default.
	tbl := testTable(t, 300)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	recips := make([]api.RecipientRef, 33)
	for i := range recips {
		recips[i] = api.RecipientRef{ID: fmt.Sprintf("site-%02d", i)}
	}
	var fp api.FingerprintResponse
	status, raw := postJSON(t, ts.URL+"/v1/fingerprint", api.FingerprintRequest{
		Table: wire, Secret: "cap secret", Eta: 15, Recipients: recips,
	}, &fp)
	if status != http.StatusOK {
		t.Fatalf("33 recipients under the default cap: %d\n%s", status, raw)
	}
	if len(fp.Recipients) != 33 {
		t.Fatalf("got %d recipients", len(fp.Recipients))
	}

	// A configured cap refuses larger batches with the machine code.
	reg := registry.New()
	capped := testServer(t, Config{
		Defaults:                 core.Config{K: 15, AutoEpsilon: true},
		MaxFingerprintRecipients: 2,
		Registry:                 reg,
	})
	status, raw = postJSON(t, capped.URL+"/v1/fingerprint", api.FingerprintRequest{
		Table: wire, Secret: "cap secret", Eta: 15,
		Recipients: []api.RecipientRef{{ID: "a"}, {ID: "b"}, {ID: "c"}},
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("over-cap batch: %d\n%s", status, raw)
	}
	var envelope api.ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error.Code != api.CodeTooManyRecipients {
		t.Fatalf("over-cap envelope: %s", raw)
	}
	if !strings.Contains(envelope.Error.Message, "at most 2") {
		t.Fatalf("envelope lost the cap: %s", envelope.Error.Message)
	}
	if len(reg.List()) != 0 {
		t.Fatalf("refused batch reached the registry (%d records)", len(reg.List()))
	}
	// At the cap passes.
	status, raw = postJSON(t, capped.URL+"/v1/fingerprint", api.FingerprintRequest{
		Table: wire, Secret: "cap secret", Eta: 15,
		Recipients: []api.RecipientRef{{ID: "a"}, {ID: "b"}},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("at-cap batch: %d\n%s", status, raw)
	}
}

// TestJobDetect submits the same CSV-sourced detect request sync and
// async: the job result must be byte-identical to the sync response
// body, and the verdict must find the mark.
func TestJobDetect(t *testing.T) {
	_, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 600)
	key := crypt.NewWatermarkKeyFromSecret("job detect secret", 25)
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	csvWire, err := api.EncodeTable(prot.Table, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.DetectRequest{
		Table:      csvWire,
		Provenance: prot.Provenance,
		Key:        api.Key{Secret: "job detect secret", Eta: 25},
	})
	if err != nil {
		t.Fatal(err)
	}

	r, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	syncBody, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("sync detect: %d\n%s", r.StatusCode, syncBody)
	}

	status, sub := submitJob(t, ts.URL, "detect", body, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	final := waitJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != jobs.StateSucceeded {
		t.Fatalf("job ended %s: %s %s", final.Job.State, final.Job.ErrorCode, final.Job.Error)
	}
	if !bytes.Equal(syncBody, append(bytes.Clone(final.Result), '\n')) {
		t.Fatalf("async detect differs from sync body:\nsync:  %s\nasync: %s", syncBody, final.Result)
	}
	var det api.DetectResponse
	if err := json.Unmarshal(final.Result, &det); err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Fatalf("async detect missed the mark: %+v", det)
	}
}
