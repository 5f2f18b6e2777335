package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/tenant"
)

// tenantFixture is one provisioned tenant plus its plaintext token.
type tenantFixture struct {
	id    string
	token string
}

// newTenantServer builds a server in multi-tenant mode with one tenant
// per spec, returning the frontend and the fixtures in spec order.
func newTenantServer(t *testing.T, cfg Config, specs ...tenant.Record) (*httptest.Server, []tenantFixture) {
	t.Helper()
	store := tenant.New()
	fixtures := make([]tenantFixture, len(specs))
	for i, spec := range specs {
		token, hash := tenant.NewToken()
		spec.TokenSHA256 = hash
		if spec.Role == "" {
			spec.Role = tenant.RoleMember
		}
		if err := store.Put(spec); err != nil {
			t.Fatal(err)
		}
		fixtures[i] = tenantFixture{id: spec.ID, token: token}
	}
	cfg.Tenants = store
	if cfg.Defaults.K == 0 {
		cfg.Defaults = core.Config{K: 15, AutoEpsilon: true}
	}
	ts := testServer(t, cfg)
	return ts, fixtures
}

// doAs performs one JSON request as the given tenant ("" = no token).
func doAs(t *testing.T, token, method, url string, body []byte, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func readBody(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, body)
	}
	return er.Error.Code
}

// TestAuthRequired: with a tenant store configured, pipeline routes
// refuse tokenless (401 + WWW-Authenticate), wrong-token (401) and
// disabled-tenant (403) requests, and serve valid tokens.
func TestAuthRequired(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "hospital-a"},
		tenant.Record{ID: "mothballed", Disabled: true},
	)

	r := doAs(t, "", http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	body := readBody(t, r)
	if r.StatusCode != http.StatusUnauthorized || errorCode(t, body) != api.CodeUnauthorized {
		t.Fatalf("tokenless request: %d %s, want 401 unauthorized", r.StatusCode, body)
	}
	if got := r.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Fatalf("WWW-Authenticate = %q, want a Bearer challenge", got)
	}
	if r.Header.Get(api.RequestIDHeader) == "" {
		t.Fatal("401 response carries no request ID")
	}

	r = doAs(t, "mst_00000000000000000000000000000000", http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token request: %d %s, want 401", r.StatusCode, body)
	}

	// A disabled tenant's still-valid token is recognized but refused.
	disabledToken := tenants[1].token
	r = doAs(t, disabledToken, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	body = readBody(t, r)
	if r.StatusCode != http.StatusForbidden || errorCode(t, body) != api.CodeForbidden {
		t.Fatalf("disabled tenant: %d %s, want 403 forbidden", r.StatusCode, body)
	}

	r = doAs(t, tenants[0].token, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("valid token: %d %s, want 200", r.StatusCode, body)
	}
	// Probes stay open: no token needed even in tenant mode.
	r = doAs(t, "", http.MethodGet, ts.URL+"/healthz", nil, nil)
	if readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("tokenless healthz in tenant mode: %d, want 200", r.StatusCode)
	}
}

// TestAuthGolden20k: the pipeline output is byte-identical through an
// authenticated tenant client — the tenant plane never perturbs
// protection. Hash-pinned to the same golden as TestJobGolden20k.
func TestAuthGolden20k(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row protect in -short mode")
	}
	const wantResultSHA = "91b1d6b978f70b474cf3a7897dcd77c95e80a48c298a6432ce298f2dd505c606"
	ts, tenants := newTenantServer(t, Config{Defaults: core.Config{K: 20, AutoEpsilon: true}},
		tenant.Record{ID: "golden"})

	tbl, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := api.EncodeTable(tbl, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ProtectRequest{
		Table:  wire,
		Key:    api.Key{Secret: "bench", Eta: 75},
		Output: api.OutputCSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := doAs(t, tenants[0].token, http.MethodPost, ts.URL+"/v1/protect", body, nil)
	respBody := readBody(t, r)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("authenticated protect: %d\n%.300s", r.StatusCode, respBody)
	}
	// The sync body is the job-golden result document plus the JSON
	// encoder's trailing newline.
	got := fmt.Sprintf("%x", sha256.Sum256(bytes.TrimRight(respBody, "\n")))
	if got != wantResultSHA {
		t.Fatalf("authenticated protect hash = %s, want %s", got, wantResultSHA)
	}
}

// TestTenantRegistryIsolation: tenant B can neither see, read, delete
// nor trace against tenant A's fingerprint registrations.
func TestTenantRegistryIsolation(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "tenant-a"},
		tenant.Record{ID: "tenant-b"},
	)
	a, b := tenants[0], tenants[1]

	// A fingerprints a table for one recipient, registering it.
	wire, err := api.EncodeTable(testTable(t, 600), api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	fpBody, err := json.Marshal(api.FingerprintRequest{
		Table:      wire,
		Secret:     "tenant-a master secret",
		Eta:        10,
		Recipients: []api.RecipientRef{{ID: "clinic-1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := doAs(t, a.token, http.MethodPost, ts.URL+"/v1/fingerprint", fpBody, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint as A: %d %s", r.StatusCode, body)
	}

	// A sees its registration; B's list is empty.
	var listA, listB api.RecipientsResponse
	r = doAs(t, a.token, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	if err := json.Unmarshal(readBody(t, r), &listA); err != nil || len(listA.Recipients) != 1 {
		t.Fatalf("A's recipients: %v %+v, want exactly clinic-1", err, listA)
	}
	r = doAs(t, b.token, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	if err := json.Unmarshal(readBody(t, r), &listB); err != nil || len(listB.Recipients) != 0 {
		t.Fatalf("B's recipients: %v %+v, want empty", err, listB)
	}

	// B cannot read or delete A's record even with A's secret in hand —
	// the record does not exist in B's namespace.
	secretHdr := map[string]string{api.SecretHeader: "tenant-a master secret"}
	r = doAs(t, b.token, http.MethodGet, ts.URL+"/v1/recipients/clinic-1", nil, secretHdr)
	if body := readBody(t, r); r.StatusCode != http.StatusNotFound {
		t.Fatalf("B reading A's record: %d %s, want 404", r.StatusCode, body)
	}
	r = doAs(t, b.token, http.MethodDelete, ts.URL+"/v1/recipients/clinic-1", nil, secretHdr)
	if body := readBody(t, r); r.StatusCode != http.StatusNotFound {
		t.Fatalf("B deleting A's record: %d %s, want 404", r.StatusCode, body)
	}

	// B's traceback sees no candidates at all.
	tbBody, err := json.Marshal(api.TracebackRequest{Table: wire, Secret: "tenant-a master secret"})
	if err != nil {
		t.Fatal(err)
	}
	r = doAs(t, b.token, http.MethodPost, ts.URL+"/v1/traceback", tbBody, nil)
	body := readBody(t, r)
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "no recipients registered") {
		t.Fatalf("B's traceback over A's registry: %d %s, want 400 no-recipients", r.StatusCode, body)
	}

	// A's own record stays readable and deletable.
	r = doAs(t, a.token, http.MethodGet, ts.URL+"/v1/recipients/clinic-1", nil, secretHdr)
	if body := readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("A reading its record: %d %s", r.StatusCode, body)
	}
}

// TestTenantJobIsolation: jobs are invisible across tenants — list,
// get, cancel and the SSE event stream all treat a foreign job ID as
// absent (404, never 403).
func TestTenantJobIsolation(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "tenant-a"},
		tenant.Record{ID: "tenant-b"},
	)
	a, b := tenants[0], tenants[1]

	r := doAs(t, a.token, http.MethodPost, ts.URL+"/v1/jobs/protect", protectBody(t, 300, api.OutputRows), nil)
	body := readBody(t, r)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit as A: %d %s", r.StatusCode, body)
	}
	var sub api.JobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	jobID := sub.Job.ID

	// B: list empty, get/cancel/events 404.
	var listB api.JobsListResponse
	r = doAs(t, b.token, http.MethodGet, ts.URL+"/v1/jobs", nil, nil)
	if err := json.Unmarshal(readBody(t, r), &listB); err != nil || listB.Total != 0 {
		t.Fatalf("B's job list: %v total=%d, want empty", err, listB.Total)
	}
	r = doAs(t, b.token, http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusNotFound || errorCode(t, body) != api.CodeNotFound {
		t.Fatalf("B polling A's job: %d %s, want 404 not_found", r.StatusCode, body)
	}
	r = doAs(t, b.token, http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusNotFound {
		t.Fatalf("B canceling A's job: %d %s, want 404", r.StatusCode, body)
	}
	r = doAs(t, b.token, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/events", nil, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusNotFound {
		t.Fatalf("B streaming A's job events: %d %s, want 404", r.StatusCode, body)
	}

	// A: list shows it, get works, the event stream opens.
	var listA api.JobsListResponse
	r = doAs(t, a.token, http.MethodGet, ts.URL+"/v1/jobs", nil, nil)
	if err := json.Unmarshal(readBody(t, r), &listA); err != nil || listA.Total != 1 {
		t.Fatalf("A's job list: %v total=%d, want 1", err, listA.Total)
	}
	r = doAs(t, a.token, http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil, nil)
	if body := readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("A polling its job: %d %s", r.StatusCode, body)
	}
	r = doAs(t, a.token, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/events", nil, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("A streaming its job events: %d", r.StatusCode)
	}
	// Read the first SSE event, then drop the stream.
	br := bufio.NewReader(r.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event:") {
		t.Fatalf("first SSE line = %q, %v", line, err)
	}
	r.Body.Close()
}

// TestTenantRateLimit: a burst beyond the tenant's bucket is refused
// with 429/rate_limited and a positive whole-second Retry-After, while
// another tenant is unaffected.
func TestTenantRateLimit(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "throttled", Quota: tenant.Quota{RequestsPerMinute: 60, Burst: 2}},
		tenant.Record{ID: "calm"},
	)
	limited, calm := tenants[0], tenants[1]

	got429 := false
	for i := 0; i < 3; i++ {
		r := doAs(t, limited.token, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
		body := readBody(t, r)
		if i < 2 {
			if r.StatusCode != http.StatusOK {
				t.Fatalf("request %d within burst: %d %s", i, r.StatusCode, body)
			}
			continue
		}
		if r.StatusCode != http.StatusTooManyRequests || errorCode(t, body) != api.CodeRateLimited {
			t.Fatalf("request %d over burst: %d %s, want 429 rate_limited", i, r.StatusCode, body)
		}
		if ra := r.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("Retry-After = %q, want a positive whole-second value", ra)
		}
		got429 = true
	}
	if !got429 {
		t.Fatal("burst never hit the limiter")
	}
	// The other tenant's bucket is untouched.
	r := doAs(t, calm.token, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	if readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("unthrottled tenant refused: %d", r.StatusCode)
	}
}

// TestRowQuota: a table beyond the tenant's MaxRowsPerRequest is
// refused with 429/quota_exceeded before the pipeline runs.
func TestRowQuota(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "small", Quota: tenant.Quota{MaxRowsPerRequest: 100}})

	wire, err := api.EncodeTable(testTable(t, 300), api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ProtectRequest{Table: wire, Key: api.Key{Secret: "s", Eta: 10}})
	if err != nil {
		t.Fatal(err)
	}
	r := doAs(t, tenants[0].token, http.MethodPost, ts.URL+"/v1/protect", body, nil)
	respBody := readBody(t, r)
	if r.StatusCode != http.StatusTooManyRequests || errorCode(t, respBody) != api.CodeQuotaExceeded {
		t.Fatalf("over-quota protect: %d %s, want 429 quota_exceeded", r.StatusCode, respBody)
	}
}

// TestActiveJobQuota: MaxActiveJobs bounds queued+running jobs per
// tenant at submit time.
func TestActiveJobQuota(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "queued-up", Quota: tenant.Quota{MaxActiveJobs: 1}})
	tok := tenants[0].token

	// First job (big enough to still be active when the second submit
	// lands microseconds later).
	r := doAs(t, tok, http.MethodPost, ts.URL+"/v1/jobs/protect", protectBody(t, 5000, api.OutputRows), nil)
	if body := readBody(t, r); r.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", r.StatusCode, body)
	}
	r = doAs(t, tok, http.MethodPost, ts.URL+"/v1/jobs/protect", protectBody(t, 300, api.OutputRows), nil)
	body := readBody(t, r)
	if r.StatusCode != http.StatusTooManyRequests || errorCode(t, body) != api.CodeQuotaExceeded {
		t.Fatalf("second submit over job quota: %d %s, want 429 quota_exceeded", r.StatusCode, body)
	}
}

// TestActiveJobQuotaReplay: a tenant at its active-job quota that
// resubmits with the same Idempotency-Key gets its existing job back
// (200), not 429 — a replay creates nothing, so the quota does not
// apply to it.
func TestActiveJobQuotaReplay(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "queued-up", Quota: tenant.Quota{MaxActiveJobs: 1}})
	tok := tenants[0].token
	key := map[string]string{api.IdempotencyKeyHeader: "nightly-1"}
	body := protectBody(t, 5000, api.OutputRows)

	r := doAs(t, tok, http.MethodPost, ts.URL+"/v1/jobs/protect", body, key)
	first := readBody(t, r)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", r.StatusCode, first)
	}
	r = doAs(t, tok, http.MethodPost, ts.URL+"/v1/jobs/protect", body, key)
	again := readBody(t, r)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("replay at the job quota: %d %s, want 200 with the existing job", r.StatusCode, again)
	}
	var a, b api.JobResponse
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &b); err != nil {
		t.Fatal(err)
	}
	if a.Job.ID == "" || b.Job.ID != a.Job.ID {
		t.Fatalf("replay returned job %q, want %q", b.Job.ID, a.Job.ID)
	}
}

// TestMetricsEndpoint: loopback scrapes pass unauthenticated and the
// exposition carries the service families; off-host scrapes need an
// admin token.
func TestMetricsEndpoint(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "ops", Role: tenant.RoleAdmin},
		tenant.Record{ID: "member"},
	)

	// Drive one authenticated request so the counters are non-empty.
	r := doAs(t, tenants[1].token, http.MethodGet, ts.URL+"/v1/recipients", nil, nil)
	readBody(t, r)

	// httptest serves over 127.0.0.1, so the plain scrape is the
	// loopback case.
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readBody(t, r))
	if r.StatusCode != http.StatusOK {
		t.Fatalf("loopback scrape: %d\n%s", r.StatusCode, text)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	for _, family := range []string{
		"# TYPE medshield_http_requests_total counter",
		"# TYPE medshield_http_request_duration_seconds histogram",
		"# TYPE medshield_http_inflight_requests gauge",
		`medshield_http_requests_total{route="/v1/recipients",method="GET",code="200"} 1`,
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("exposition is missing %q:\n%.800s", family, text)
		}
	}

	// Off-host scrapes: refused without a token or with a member token,
	// served with an admin token. Drive the handler directly so the
	// remote address is controllable.
	s, err := New(Config{Defaults: core.Config{K: 15, AutoEpsilon: true}, Tenants: mustStoreOf(t, tenants)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		name  string
		token string
		want  int
	}{
		{"anonymous", "", http.StatusForbidden},
		{"member", tenants[1].token, http.StatusForbidden},
		{"admin", tenants[0].token, http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		req.RemoteAddr = "203.0.113.9:4711"
		if tc.token != "" {
			req.Header.Set("Authorization", "Bearer "+tc.token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("off-host scrape as %s: %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// mustStoreOf rebuilds a tenant store whose records authenticate the
// fixtures' tokens (for servers constructed outside newTenantServer).
func mustStoreOf(t *testing.T, fixtures []tenantFixture) *tenant.Store {
	t.Helper()
	store := tenant.New()
	for i, f := range fixtures {
		role := tenant.RoleMember
		if i == 0 {
			role = tenant.RoleAdmin
		}
		if err := store.Put(tenant.Record{ID: f.id, Role: role, TokenSHA256: tenant.HashToken(f.token)}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestAuditTrail: every mutating call appends exactly one JSONL record
// carrying tenant, route, status, rows and duration — and no secret
// material (token, master secret, table data).
func TestAuditTrail(t *testing.T) {
	var buf bytes.Buffer
	ts, tenants := newTenantServer(t, Config{Audit: audit.NewLogger(&buf)},
		tenant.Record{ID: "audited"})
	tok := tenants[0].token

	wire, err := api.EncodeTable(testTable(t, 200), api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ProtectRequest{Table: wire, Key: api.Key{Secret: "very secret phrase", Eta: 10}})
	if err != nil {
		t.Fatal(err)
	}
	r := doAs(t, tok, http.MethodPost, ts.URL+"/v1/protect", body, nil)
	if respBody := readBody(t, r); r.StatusCode != http.StatusOK {
		t.Fatalf("protect: %d %s", r.StatusCode, respBody)
	}
	// A read (recipients list) is not audited; a failed mutate is.
	readBody(t, doAs(t, tok, http.MethodGet, ts.URL+"/v1/recipients", nil, nil))
	readBody(t, doAs(t, "", http.MethodPost, ts.URL+"/v1/protect", body, nil))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit lines = %d, want exactly 2 (one per mutating call):\n%s", len(lines), buf.String())
	}
	var rec audit.Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("audit line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Tenant != "audited" || rec.Route != "/v1/protect" || rec.Method != http.MethodPost || rec.Status != http.StatusOK {
		t.Fatalf("audit record = %+v", rec)
	}
	if rec.Rows != 200 {
		t.Fatalf("audit rows = %d, want 200", rec.Rows)
	}
	if rec.RequestID == "" || rec.DurationMS < 0 {
		t.Fatalf("audit record lacks request ID or duration: %+v", rec)
	}
	var denied audit.Record
	if err := json.Unmarshal([]byte(lines[1]), &denied); err != nil {
		t.Fatal(err)
	}
	if denied.Status != http.StatusUnauthorized || denied.Code != api.CodeUnauthorized {
		t.Fatalf("refused call's audit record = %+v, want 401 unauthorized", denied)
	}
	for _, leak := range []string{"very secret phrase", tok, "mst_"} {
		if strings.Contains(buf.String(), leak) {
			t.Fatalf("audit log leaks secret material %q", leak)
		}
	}
}

// TestRequestIDEcho: every response (success and error, open and
// tenant mode) echoes a fresh X-Request-Id.
func TestRequestIDEcho(t *testing.T) {
	ts := testServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	first := r.Header.Get(api.RequestIDHeader)
	readBody(t, r)
	if !strings.HasPrefix(first, "r-") || len(first) != 14 {
		t.Fatalf("request ID = %q, want r-<12 hex>", first)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	second := r.Header.Get(api.RequestIDHeader)
	readBody(t, r)
	if second == first {
		t.Fatal("request IDs repeat across requests")
	}
}

// TestMetricsExpositionBytes pins the /metrics document after a fixed
// request mix that reaches every family: requests by route, method and
// code, the latency histogram, rows, a tenant rate limit, the three
// authentication failures and the job-state gauge. Latency bucket
// counts and sums depend on the clock, so their values are masked; the
// histogram's _count lines are exact.
func TestMetricsExpositionBytes(t *testing.T) {
	ts, tenants := newTenantServer(t, Config{},
		tenant.Record{ID: "ops", Role: tenant.RoleAdmin},
		tenant.Record{ID: "member", Quota: tenant.Quota{RequestsPerMinute: 1, Burst: 1}},
		tenant.Record{ID: "off", Disabled: true},
	)
	for _, tc := range []struct {
		token, method, path string
		body                []byte
		want                int
	}{
		{tenants[1].token, http.MethodGet, "/v1/recipients", nil, http.StatusOK},
		{tenants[1].token, http.MethodGet, "/v1/recipients", nil, http.StatusTooManyRequests},
		{"", http.MethodGet, "/v1/recipients", nil, http.StatusUnauthorized},
		{"not-a-token", http.MethodGet, "/v1/recipients", nil, http.StatusUnauthorized},
		{tenants[2].token, http.MethodGet, "/v1/recipients", nil, http.StatusForbidden},
		{tenants[0].token, http.MethodPost, "/v1/protect", protectBody(t, 300, api.OutputRows), http.StatusOK},
		{"", http.MethodGet, "/healthz", nil, http.StatusOK},
	} {
		r := doAs(t, tc.token, tc.method, ts.URL+tc.path, tc.body, nil)
		if body := readBody(t, r); r.StatusCode != tc.want {
			t.Fatalf("%s %s: %d %s, want %d", tc.method, tc.path, r.StatusCode, body, tc.want)
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(readBody(t, r)), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "medshield_http_request_duration_seconds_bucket") || strings.HasPrefix(l, "medshield_http_request_duration_seconds_sum") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " N"
		}
	}
	if got := strings.Join(lines, "\n"); got != metricsGolden {
		t.Errorf("/metrics =\n%s\nwant\n%s", got, metricsGolden)
	}
}

const metricsGolden = `# HELP medshield_auth_failures_total Failed bearer authentications.
# TYPE medshield_auth_failures_total counter
medshield_auth_failures_total{reason="disabled"} 1
medshield_auth_failures_total{reason="missing"} 1
medshield_auth_failures_total{reason="unknown"} 1
# HELP medshield_http_inflight_requests Requests currently inside a handler.
# TYPE medshield_http_inflight_requests gauge
medshield_http_inflight_requests 1
# HELP medshield_http_request_duration_seconds HTTP request latency in seconds.
# TYPE medshield_http_request_duration_seconds histogram
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.005"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.01"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.025"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.05"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.1"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.25"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="0.5"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="1"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="2.5"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="5"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="10"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="30"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="60"} N
medshield_http_request_duration_seconds_bucket{route="/healthz",le="+Inf"} N
medshield_http_request_duration_seconds_sum{route="/healthz"} N
medshield_http_request_duration_seconds_count{route="/healthz"} 1
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.005"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.01"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.025"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.05"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.1"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.25"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="0.5"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="1"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="2.5"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="5"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="10"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="30"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="60"} N
medshield_http_request_duration_seconds_bucket{route="/v1/protect",le="+Inf"} N
medshield_http_request_duration_seconds_sum{route="/v1/protect"} N
medshield_http_request_duration_seconds_count{route="/v1/protect"} 1
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.005"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.01"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.025"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.05"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.1"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.25"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="0.5"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="1"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="2.5"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="5"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="10"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="30"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="60"} N
medshield_http_request_duration_seconds_bucket{route="/v1/recipients",le="+Inf"} N
medshield_http_request_duration_seconds_sum{route="/v1/recipients"} N
medshield_http_request_duration_seconds_count{route="/v1/recipients"} 5
# HELP medshield_http_requests_total HTTP requests served.
# TYPE medshield_http_requests_total counter
medshield_http_requests_total{route="/healthz",method="GET",code="200"} 1
medshield_http_requests_total{route="/v1/protect",method="POST",code="200"} 1
medshield_http_requests_total{route="/v1/recipients",method="GET",code="200"} 1
medshield_http_requests_total{route="/v1/recipients",method="GET",code="401"} 2
medshield_http_requests_total{route="/v1/recipients",method="GET",code="403"} 1
medshield_http_requests_total{route="/v1/recipients",method="GET",code="429"} 1
# HELP medshield_jobs Jobs by lifecycle state.
# TYPE medshield_jobs gauge
# HELP medshield_rate_limited_total Requests refused by a token bucket.
# TYPE medshield_rate_limited_total counter
medshield_rate_limited_total{scope="tenant"} 1
# HELP medshield_rows_processed_total Table rows consumed by pipeline requests.
# TYPE medshield_rows_processed_total counter
medshield_rows_processed_total{route="/v1/protect"} 300
`
