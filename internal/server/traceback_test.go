package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/tenant"
)

// TestHTTPFingerprintTraceback drives the multi-recipient story over
// HTTP: fingerprint for three hospitals, list the registry, trace a
// leaked copy back to its recipient, then prune a record.
func TestHTTPFingerprintTraceback(t *testing.T) {
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
	}, &fp)
	if status != http.StatusOK {
		t.Fatalf("fingerprint: %d\n%s", status, raw)
	}
	if len(fp.Recipients) != 3 {
		t.Fatalf("got %d recipients", len(fp.Recipients))
	}
	for _, r := range fp.Recipients {
		if r.BitsEmbedded == 0 || r.KeyFingerprint == "" {
			t.Fatalf("recipient %s: implausible response %+v", r.ID, r)
		}
	}
	if len(reg.List()) != 3 {
		t.Fatalf("registry holds %d records", len(reg.List()))
	}

	// List view.
	resp, err := http.Get(ts.URL + "/v1/recipients")
	if err != nil {
		t.Fatal(err)
	}
	var list api.RecipientsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Recipients) != 3 || list.Recipients[0].ID != "hospital-a" {
		t.Fatalf("recipients list: %+v", list.Recipients)
	}
	if list.Recipients[0].Rows != tbl.NumRows() {
		t.Errorf("summary rows = %d", list.Recipients[0].Rows)
	}

	// Full record view requires the master secret: no header is 400,
	// a wrong secret 403, the right one returns the record.
	resp, err = http.Get(ts.URL + "/v1/recipients/hospital-b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("record read without secret: %d", resp.StatusCode)
	}
	if code := recipientRequest(t, http.MethodGet, ts.URL+"/v1/recipients/hospital-b", "wrong", nil); code != http.StatusForbidden {
		t.Fatalf("record read with wrong secret: %d", code)
	}
	var one api.RecipientResponse
	if code := recipientRequest(t, http.MethodGet, ts.URL+"/v1/recipients/hospital-b", "fleet master secret", &one); code != http.StatusOK {
		t.Fatalf("record read: %d", code)
	}
	if one.Recipient.RecipientID != "hospital-b" || one.Recipient.Plan.Rows != tbl.NumRows() {
		t.Fatalf("recipient record: %+v", one.Recipient)
	}

	// Traceback over hospital-b's leaked copy (as returned) names it.
	var tb api.TracebackResponse
	status, raw = postJSON(t, ts.URL+"/v1/traceback", api.TracebackRequest{
		Table:  fp.Recipients[1].Table,
		Secret: "fleet master secret",
	}, &tb)
	if status != http.StatusOK {
		t.Fatalf("traceback: %d\n%s", status, raw)
	}
	if tb.Culprit != "hospital-b" || tb.Matches != 1 {
		t.Fatalf("traceback verdicts: %+v", tb)
	}
	if len(tb.Verdicts) != 3 || tb.Verdicts[0].RecipientID != "hospital-b" {
		t.Fatalf("verdicts not ranked: %+v", tb.Verdicts)
	}

	// Wrong master secret fails the fingerprint check -> 403.
	status, raw = postJSON(t, ts.URL+"/v1/traceback", api.TracebackRequest{
		Table:  fp.Recipients[1].Table,
		Secret: "not the secret",
	}, nil)
	if status != http.StatusForbidden {
		t.Fatalf("wrong secret: %d\n%s", status, raw)
	}
	var envelope api.ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error.Code != api.CodeKeyMismatch {
		t.Fatalf("wrong-secret envelope: %s", raw)
	}

	// Delete requires the secret too; then the record is gone.
	if code := recipientRequest(t, http.MethodDelete, ts.URL+"/v1/recipients/hospital-c", "wrong", nil); code != http.StatusForbidden {
		t.Fatalf("delete with wrong secret: %d", code)
	}
	if len(reg.List()) != 3 {
		t.Fatalf("unauthorized delete mutated the registry (%d records)", len(reg.List()))
	}
	if code := recipientRequest(t, http.MethodDelete, ts.URL+"/v1/recipients/hospital-c", "fleet master secret", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := recipientRequest(t, http.MethodGet, ts.URL+"/v1/recipients/hospital-c", "fleet master secret", nil); code != http.StatusNotFound {
		t.Fatalf("deleted recipient: %d", code)
	}
	if len(reg.List()) != 2 {
		t.Fatalf("registry holds %d records after delete", len(reg.List()))
	}
}

// recipientRequest issues a registry-record request with the master
// secret header and optionally decodes a 2xx JSON body into out.
func recipientRequest(t *testing.T, method, url, secret string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.SecretHeader, secret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHTTPTracebackEmptyRegistry rejects traceback with nothing
// registered.
func TestHTTPTracebackEmptyRegistry(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 200)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/traceback", api.TracebackRequest{Table: wire, Secret: "s"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("empty registry: %d\n%s", status, raw)
	}
}

// TestHTTPRecipientImport round-trips a record through the import
// endpoint: export from one service's registry, import into another,
// traceback there.
func TestHTTPRecipientImport(t *testing.T) {
	regA := registry.New()
	tsA := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, Registry: regA})
	tbl := testTable(t, 900)
	wire, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	var fp api.FingerprintResponse
	status, raw := postJSON(t, tsA.URL+"/v1/fingerprint", api.FingerprintRequest{
		Table: wire, Secret: "shared secret", Eta: 15,
		Recipients: []api.RecipientRef{{ID: "clinic-x"}},
	}, &fp)
	if status != http.StatusOK {
		t.Fatalf("fingerprint: %d\n%s", status, raw)
	}
	rec, ok := regA.GetIn(tenant.DefaultID, "clinic-x")
	if !ok {
		t.Fatal("clinic-x not registered")
	}

	regB := registry.New()
	tsB := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, Registry: regB})
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Import requires the secret the record was fingerprinted under.
	importReq := func(secret string) int {
		req, err := http.NewRequest(http.MethodPost, tsB.URL+"/v1/recipients", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.SecretHeader, secret)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := importReq("not the secret"); code != http.StatusForbidden {
		t.Fatalf("import with foreign secret: %d", code)
	}
	if len(regB.List()) != 0 {
		t.Fatal("unauthorized import reached the registry")
	}
	if code := importReq("shared secret"); code != http.StatusCreated {
		t.Fatalf("import: %d", code)
	}

	var tb api.TracebackResponse
	status, raw = postJSON(t, tsB.URL+"/v1/traceback", api.TracebackRequest{
		Table: fp.Recipients[0].Table, Secret: "shared secret",
	}, &tb)
	if status != http.StatusOK {
		t.Fatalf("traceback after import: %d\n%s", status, raw)
	}
	if tb.Culprit != "clinic-x" {
		t.Fatalf("culprit = %q", tb.Culprit)
	}
}
