package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/ontology"
)

// newJobServer builds a server plus its httptest frontend, returning
// both so tests can reach the in-process state (semaphore, manager).
func newJobServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
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
	return s, ts
}

func submitJob(t *testing.T, url, kind string, body []byte, headers map[string]string) (int, api.JobResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs/"+kind, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	var resp api.JobResponse
	if r.StatusCode == http.StatusAccepted || r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decoding submit response: %v\n%s", err, raw)
		}
	}
	return r.StatusCode, resp
}

func getJob(t *testing.T, url, id string) (int, api.JobResponse) {
	t.Helper()
	r, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	var resp api.JobResponse
	if r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decoding job response: %v\n%s", err, raw)
		}
	}
	return r.StatusCode, resp
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, url, id string) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		status, resp := getJob(t, url, id)
		if status != http.StatusOK {
			t.Fatalf("polling job %s: %d", id, status)
		}
		if resp.Job.State.Terminal() {
			return resp
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobResponse{}
}

func protectBody(t *testing.T, rows int, output string) []byte {
	t.Helper()
	wire, err := api.EncodeTable(testTable(t, rows), output)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ProtectRequest{
		Table:  wire,
		Key:    api.Key{Secret: "job secret", Eta: 25},
		Output: output,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJobProtectMatchesSync submits the same protect request sync and
// async and requires byte-identical response documents: the async
// result plus the encoder's trailing newline IS the sync body.
func TestJobProtectMatchesSync(t *testing.T) {
	_, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	body := protectBody(t, 800, api.OutputCSV)

	r, err := http.Post(ts.URL+"/v1/protect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	syncBody, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("sync protect: %d\n%s", r.StatusCode, syncBody)
	}

	status, sub := submitJob(t, ts.URL, "protect", body, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	if sub.Job.State != jobs.StateQueued && sub.Job.State != jobs.StateRunning {
		t.Fatalf("submitted job state = %s", sub.Job.State)
	}
	final := waitJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != jobs.StateSucceeded {
		t.Fatalf("job ended %s: %s %s", final.Job.State, final.Job.ErrorCode, final.Job.Error)
	}
	if !bytes.Equal(syncBody, append(bytes.Clone(final.Result), '\n')) {
		t.Fatalf("async result differs from sync body:\nsync  %d bytes (sha %x)\nasync %d bytes (sha %x)",
			len(syncBody), sha256.Sum256(syncBody), len(final.Result), sha256.Sum256(final.Result))
	}
}

// TestJobKindsMatchSync runs every job kind both ways: the async result
// must be the sync JSON response body minus its trailing newline. The
// traceback case ranks the fleet the fingerprint case registered.
func TestJobKindsMatchSync(t *testing.T) {
	_, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	tbl := testTable(t, 500)
	rows, err := api.EncodeTable(tbl, api.OutputRows)
	if err != nil {
		t.Fatal(err)
	}
	key := api.Key{Secret: "kinds secret", Eta: 25}
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ProtectContext(context.Background(), tbl, crypt.NewWatermarkKeyFromSecret(key.Secret, key.Eta))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, crypt.NewWatermarkKeyFromSecret(key.Secret, key.Eta))
	if err != nil {
		t.Fatal(err)
	}
	marked, err := api.EncodeTable(prot.Table, api.OutputCSV)
	if err != nil {
		t.Fatal(err)
	}
	var leak api.Table // hospital-b's copy, from the fingerprint case
	cases := []struct {
		kind string
		req  func() any
	}{
		{"protect", func() any { return api.ProtectRequest{Table: rows, Key: key, Output: api.OutputCSV} }},
		{"plan", func() any { return api.PlanRequest{Table: rows, Key: key} }},
		{"apply", func() any { return api.ApplyRequest{Table: rows, Plan: *plan, Key: key} }},
		{"detect", func() any { return api.DetectRequest{Table: marked, Provenance: prot.Provenance, Key: key} }},
		{"fingerprint", func() any {
			return api.FingerprintRequest{Table: rows, Secret: "kinds master", Eta: 20,
				Recipients: []api.RecipientRef{{ID: "hospital-a"}, {ID: "hospital-b"}}}
		}},
		{"traceback", func() any { return api.TracebackRequest{Table: leak, Secret: "kinds master"} }},
	}
	if len(cases) != len(jobKinds) {
		t.Fatalf("%d cases for %d job kinds", len(cases), len(jobKinds))
	}
	for i, tc := range cases {
		if tc.kind != jobKinds[i] {
			t.Fatalf("case %d is %q, job kind %q", i, tc.kind, jobKinds[i])
		}
		body, err := json.Marshal(tc.req())
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(ts.URL+"/v1/"+tc.kind, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		syncBody, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("sync %s: %d\n%s", tc.kind, r.StatusCode, syncBody)
		}
		status, sub := submitJob(t, ts.URL, tc.kind, body, nil)
		if status != http.StatusAccepted {
			t.Fatalf("submit %s: %d", tc.kind, status)
		}
		final := waitJob(t, ts.URL, sub.Job.ID)
		if final.Job.State != jobs.StateSucceeded {
			t.Fatalf("%s job ended %s: %s %s", tc.kind, final.Job.State, final.Job.ErrorCode, final.Job.Error)
		}
		if !bytes.Equal(syncBody, append(bytes.Clone(final.Result), '\n')) {
			t.Fatalf("async %s differs from sync body:\nsync:  %.300s\nasync: %.300s", tc.kind, syncBody, final.Result)
		}
		switch tc.kind {
		case "fingerprint":
			var fp api.FingerprintResponse
			if err := json.Unmarshal(final.Result, &fp); err != nil {
				t.Fatal(err)
			}
			leak = fp.Recipients[1].Table
		case "traceback":
			var tb api.TracebackResponse
			if err := json.Unmarshal(final.Result, &tb); err != nil {
				t.Fatal(err)
			}
			if tb.Culprit != "hospital-b" {
				t.Fatalf("traceback named %q, want hospital-b", tb.Culprit)
			}
		}
	}
}

// TestJobGolden20k pins the async protect output on the 20k-row golden
// fixture: submission never runs the pipeline, however large the
// payload, and the result document is byte-identical to the sync
// response (and hash-pinned like TestPipelineGoldenOutput at the repo
// root). Update the constant only with a deliberate pipeline-semantics
// change.
func TestJobGolden20k(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row protect in -short mode")
	}
	const wantResultSHA = "91b1d6b978f70b474cf3a7897dcd77c95e80a48c298a6432ce298f2dd505c606"
	_, ts := newJobServer(t, Config{
		Defaults: core.Config{K: 20, AutoEpsilon: true},
		// One worker: the second submission below is guaranteed to wait
		// behind the first.
		Jobs: jobs.Config{Workers: 1},
	})

	// The 20k golden fixture of TestPipelineGoldenOutput (datagen seed 1).
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

	r, err := http.Post(ts.URL+"/v1/protect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	syncBody, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("sync protect: %d", r.StatusCode)
	}

	// Submission only stores the raw body. With the one worker busy on a
	// first copy of the job, the second must still be queued with no
	// attempt and no result, in the 202 snapshot and on a follow-up poll.
	_, first := submitJob(t, ts.URL, "protect", body, nil)
	status, sub := submitJob(t, ts.URL, "protect", body, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	_, polled := getJob(t, ts.URL, sub.Job.ID)
	for _, snap := range []api.JobResponse{sub, polled} {
		if snap.Job.State != jobs.StateQueued || snap.Job.Attempts != 0 || len(snap.Result) != 0 {
			t.Fatalf("20k job touched the pipeline at submit: state=%s attempts=%d result=%d bytes",
				snap.Job.State, snap.Job.Attempts, len(snap.Result))
		}
	}
	for _, id := range []string{first.Job.ID, sub.Job.ID} {
		final := waitJob(t, ts.URL, id)
		if final.Job.State != jobs.StateSucceeded {
			t.Fatalf("job ended %s: %s", final.Job.State, final.Job.Error)
		}
		if !bytes.Equal(syncBody, append(bytes.Clone(final.Result), '\n')) {
			t.Fatal("async 20k result differs from sync body")
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(final.Result)); got != wantResultSHA {
			t.Fatalf("async protect result hash = %s, want %s", got, wantResultSHA)
		}
	}
}

// TestJobIdempotencyHTTP: resubmitting the same Idempotency-Key returns
// the existing job (200, same ID) instead of creating a second one.
func TestJobIdempotencyHTTP(t *testing.T) {
	s, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	body := protectBody(t, 300, api.OutputRows)
	headers := map[string]string{api.IdempotencyKeyHeader: "nightly-2026-08-07"}

	status1, first := submitJob(t, ts.URL, "protect", body, headers)
	if status1 != http.StatusAccepted {
		t.Fatalf("first submit: %d", status1)
	}
	status2, second := submitJob(t, ts.URL, "protect", body, headers)
	if status2 != http.StatusOK {
		t.Fatalf("duplicate submit: %d, want 200", status2)
	}
	if second.Job.ID != first.Job.ID {
		t.Fatalf("duplicate submit created job %s, want %s", second.Job.ID, first.Job.ID)
	}
	waitJob(t, ts.URL, first.Job.ID)
	// Even after completion the key still maps to the same job — and now
	// returns its result immediately.
	status3, third := submitJob(t, ts.URL, "protect", body, headers)
	if status3 != http.StatusOK || third.Job.ID != first.Job.ID {
		t.Fatalf("post-completion resubmit: %d job %s", status3, third.Job.ID)
	}
	if third.Job.State != jobs.StateSucceeded || len(third.Result) == 0 {
		t.Fatalf("post-completion resubmit lacks the result: state=%s", third.Job.State)
	}
	if n := len(s.jobs.List(jobs.Filter{})); n != 1 {
		t.Fatalf("manager holds %d jobs, want 1", n)
	}
}

// TestJobListAndErrors covers listing, filtering, pagination and the
// error paths of the job routes.
func TestJobListAndErrors(t *testing.T) {
	_, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	ids := make([]string, 3)
	for i := range ids {
		status, sub := submitJob(t, ts.URL, "protect", protectBody(t, 200+50*i, api.OutputRows), nil)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, status)
		}
		ids[i] = sub.Job.ID
		waitJob(t, ts.URL, sub.Job.ID)
	}

	get := func(path string) (int, []byte) {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		raw, _ := io.ReadAll(r.Body)
		return r.StatusCode, raw
	}

	status, raw := get("/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	var list api.JobsListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 3 || len(list.Jobs) != 3 {
		t.Fatalf("list: total=%d len=%d, want 3/3", list.Total, len(list.Jobs))
	}
	// Newest first: the last submitted job leads.
	if list.Jobs[0].ID != ids[2] {
		t.Fatalf("list head = %s, want newest %s", list.Jobs[0].ID, ids[2])
	}

	status, raw = get("/v1/jobs?state=succeeded&kind=protect&limit=2&offset=2")
	if status != http.StatusOK {
		t.Fatalf("filtered list: %d", status)
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 3 || len(list.Jobs) != 1 || list.Jobs[0].ID != ids[0] {
		t.Fatalf("page 2: total=%d len=%d", list.Total, len(list.Jobs))
	}

	if status, _ := get("/v1/jobs?state=limbo"); status != http.StatusBadRequest {
		t.Fatalf("bad state filter: %d", status)
	}
	if status, _ := get("/v1/jobs/j-missing"); status != http.StatusNotFound {
		t.Fatalf("missing job: %d", status)
	}
	if status, _ := submitJob(t, ts.URL, "mystery", []byte(`{}`), nil); status != http.StatusNotFound {
		t.Fatalf("unknown kind: %d", status)
	}
	if status, _ := submitJob(t, ts.URL, "protect", []byte(`{"table":`), nil); status != http.StatusBadRequest {
		t.Fatalf("invalid JSON body: %d", status)
	}
	// A malformed request that parses as JSON fails the job, not the
	// submission — and permanently (bad_request, no retries).
	status, sub := submitJob(t, ts.URL, "protect", []byte(`{"table":{},"key":{}}`), nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit of bad request: %d", status)
	}
	final := waitJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != jobs.StateFailed || final.Job.ErrorCode != api.CodeBadRequest || final.Job.Attempts != 1 {
		t.Fatalf("bad-request job: state=%s code=%s attempts=%d", final.Job.State, final.Job.ErrorCode, final.Job.Attempts)
	}
}

// TestJobCancelHTTP cancels a queued job via DELETE.
func TestJobCancelHTTP(t *testing.T) {
	_, ts := newJobServer(t, Config{
		Defaults: core.Config{K: 15, AutoEpsilon: true},
		// One worker: the second job is guaranteed to still be queued
		// (behind the big protect run) when the cancel lands.
		Jobs: jobs.Config{Workers: 1},
	})
	big := protectBody(t, 4000, api.OutputRows)
	small := protectBody(t, 300, api.OutputRows)
	_, blocker := submitJob(t, ts.URL, "protect", big, nil)
	_, victim := submitJob(t, ts.URL, "protect", small, nil)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", r.StatusCode)
	}
	final := waitJob(t, ts.URL, victim.Job.ID)
	if final.Job.State != jobs.StateCanceled {
		t.Fatalf("victim state = %s, want canceled", final.Job.State)
	}
	if blocked := waitJob(t, ts.URL, blocker.Job.ID); blocked.Job.State != jobs.StateSucceeded {
		t.Fatalf("blocker state = %s", blocked.Job.State)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-missing", nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel missing: %d", r.StatusCode)
	}
}

// TestProbesBypassSemaphore fills the in-flight semaphore completely
// and requires /healthz, /readyz and the whole job surface to keep
// answering while a pipeline route would wait (and 503).
func TestProbesBypassSemaphore(t *testing.T) {
	s, ts := newJobServer(t, Config{
		Defaults:       core.Config{K: 15, AutoEpsilon: true},
		MaxInflight:    1,
		RequestTimeout: 300 * time.Millisecond,
	})
	// Occupy the only pipeline slot for the whole test.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	for _, path := range []string{"/healthz", "/v1/healthz", "/readyz"} {
		start := time.Now()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s under full semaphore: %d", path, r.StatusCode)
		}
		if d := time.Since(start); d > 200*time.Millisecond {
			t.Fatalf("%s queued behind the semaphore (%s)", path, d)
		}
	}
	// Job submission and polling also bypass the semaphore.
	status, sub := submitJob(t, ts.URL, "protect", protectBody(t, 300, api.OutputRows), nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit under full semaphore: %d", status)
	}
	if final := waitJob(t, ts.URL, sub.Job.ID); final.Job.State != jobs.StateSucceeded {
		t.Fatalf("job under full semaphore ended %s", final.Job.State)
	}
	// A sync pipeline call, by contrast, waits out the deadline and
	// sheds as 503/overloaded.
	r, err := http.Post(ts.URL+"/v1/protect", "application/json", bytes.NewReader(protectBody(t, 100, api.OutputRows)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sync protect under full semaphore: %d, want 503", r.StatusCode)
	}
}

// TestReadyzDrain: draining flips readiness and refuses submissions
// while health stays green.
func TestReadyzDrain(t *testing.T) {
	s, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	s.Drain()
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", r.StatusCode)
	}
	if status, _ := submitJob(t, ts.URL, "protect", protectBody(t, 100, api.OutputRows), nil); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", status)
	}
}

// sseEvent is one parsed frame of a text/event-stream body.
type sseEvent struct {
	typ  string
	data string
}

func readSSE(t *testing.T, body io.Reader, max int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" || cur.data != "" {
				events = append(events, cur)
				if len(events) >= max {
					return events
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if cur.data != "" {
				cur.data += "\n"
			}
			cur.data += strings.TrimPrefix(line, "data: ")
		}
	}
	return events
}

// TestJobSSEStream tails a job over GET /v1/jobs/{id}/events: the
// stream opens with a state snapshot, carries progress, and closes
// itself after the terminal state event.
func TestJobSSEStream(t *testing.T) {
	_, ts := newJobServer(t, Config{Defaults: core.Config{K: 15, AutoEpsilon: true}})
	status, sub := submitJob(t, ts.URL, "protect", protectBody(t, 2000, api.OutputRows), nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	events := readSSE(t, r.Body, 1000) // reads until the server closes the stream
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	if events[0].typ != jobs.EventState {
		t.Fatalf("first event is %q, want the state snapshot", events[0].typ)
	}
	last := events[len(events)-1]
	if last.typ != jobs.EventState {
		t.Fatalf("last event is %q, want a state event", last.typ)
	}
	var final jobs.Snapshot
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateSucceeded {
		t.Fatalf("stream ended on state %s", final.State)
	}

	// Tailing a finished job yields exactly the terminal snapshot.
	r2, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	replay := readSSE(t, r2.Body, 10)
	if len(replay) != 1 || replay[0].typ != jobs.EventState {
		t.Fatalf("terminal replay: %d events", len(replay))
	}
	if status, _ := getJobEvents(ts.URL, "j-missing"); status != http.StatusNotFound {
		t.Fatalf("events of missing job: %d", status)
	}
}

func getJobEvents(url, id string) (int, error) {
	r, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	r.Body.Close()
	return r.StatusCode, nil
}

// instantClock is a jobs.Clock whose timers fire at once, recording
// each requested wait: a test drives the fixed delivery schedule
// without sleeping through it.
type instantClock struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (c *instantClock) Now() time.Time { return time.Now() }

func (c *instantClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- time.Now()
	return ch
}

// TestJobWebhookHTTP points a job's webhook at a receiver that fails
// twice (once at transport level is not simulable over httptest, so
// twice with 500) before accepting: delivery retries on the fixed
// schedule (waits in [0.5s, 1s) and [1s, 2s)), the log records every
// attempt, and the signature verifies under the job's master secret.
func TestJobWebhookHTTP(t *testing.T) {
	type hit struct {
		sig   string
		event string
		id    string
		num   string
		body  []byte
	}
	var mu sync.Mutex
	var hits []hit
	receiver := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		hits = append(hits, hit{
			sig:   r.Header.Get(jobs.SignatureHeader),
			event: r.Header.Get(jobs.EventHeader),
			id:    r.Header.Get(jobs.JobIDHeader),
			num:   r.Header.Get(jobs.DeliveryHeader),
			body:  body,
		})
		n := len(hits)
		mu.Unlock()
		if n <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer receiver.Close()

	clock := &instantClock{}
	_, ts := newJobServer(t, Config{
		Defaults: core.Config{K: 15, AutoEpsilon: true},
		Jobs:     jobs.Config{Clock: clock},
	})
	status, sub := submitJob(t, ts.URL, "protect", protectBody(t, 300, api.OutputRows), map[string]string{
		api.WebhookHeader: receiver.URL + "/hook",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}

	deadline := time.Now().Add(time.Minute)
	var final api.JobResponse
	for time.Now().Before(deadline) {
		_, final = getJob(t, ts.URL, sub.Job.ID)
		if final.Job.WebhookOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !final.Job.WebhookOK {
		t.Fatalf("webhook never delivered: %+v", final.Job.Deliveries)
	}
	if len(final.Job.Deliveries) != 3 {
		t.Fatalf("delivery log has %d attempts, want 3: %+v", len(final.Job.Deliveries), final.Job.Deliveries)
	}
	for i, d := range final.Job.Deliveries {
		wantOK := i == 2
		if d.Attempt != i+1 || d.OK != wantOK {
			t.Fatalf("delivery %d: %+v", i, d)
		}
	}

	clock.mu.Lock()
	waits := clock.waits
	clock.mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("delivery waits %v, want 2", waits)
	}
	for i, w := range waits {
		if d := time.Second << i; w < d/2 || w >= d {
			t.Fatalf("wait after delivery %d = %s, want it in [%s, %s)", i+1, w, d/2, d)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(hits) != 3 {
		t.Fatalf("receiver saw %d hits, want 3", len(hits))
	}
	h := hits[2]
	if h.event != "job.completed" || h.id != sub.Job.ID || h.num != "3" {
		t.Fatalf("webhook headers: %+v", h)
	}
	// The payload is signed with the job's master secret — the receiver
	// verifies with the documented recipe.
	if !jobs.VerifySignature("job secret", h.body, h.sig) {
		t.Fatalf("webhook signature %q does not verify", h.sig)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(h.body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != sub.Job.ID || snap.State != jobs.StateSucceeded {
		t.Fatalf("webhook snapshot: %+v", snap)
	}
	// A webhook submission without a signing secret is refused up front.
	status, _ = submitJob(t, ts.URL, "protect", []byte(`{"table":{},"key":{}}`), map[string]string{
		api.WebhookHeader: receiver.URL + "/hook",
	})
	if status != http.StatusBadRequest {
		t.Fatalf("unsigned webhook submit: %d, want 400", status)
	}
}

// TestJobStorePersistenceHTTP round-trips the job layer through a
// durable store: jobs submitted against one server instance are visible
// (with results) from a second instance over the same file.
func TestJobStorePersistenceHTTP(t *testing.T) {
	path := t.TempDir() + "/jobs.json"
	store, err := jobs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newJobServer(t, Config{
		Defaults: core.Config{K: 15, AutoEpsilon: true},
		Jobs:     jobs.Config{Store: store},
	})
	status, sub := submitJob(t, ts1.URL, "protect", protectBody(t, 300, api.OutputRows), nil)
	if status != http.StatusAccepted {
		t.Fatal(status)
	}
	waitJob(t, ts1.URL, sub.Job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	store2, err := jobs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newJobServer(t, Config{
		Defaults: core.Config{K: 15, AutoEpsilon: true},
		Jobs:     jobs.Config{Store: store2},
	})
	statusGet, resp := getJob(t, ts2.URL, sub.Job.ID)
	if statusGet != http.StatusOK {
		t.Fatalf("job lost across restart: %d", statusGet)
	}
	if resp.Job.State != jobs.StateSucceeded || len(resp.Result) == 0 {
		t.Fatalf("restarted job: state=%s result=%d bytes", resp.Job.State, len(resp.Result))
	}
}
