package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/sse"
	"repro/internal/tenant"
)

// This file is the async job transport of the service: POST
// /v1/jobs/{kind} stores the corresponding synchronous endpoint's JSON
// body as a queued job and returns 202 immediately; a worker later runs
// it through that endpoint's JSON transport (ops) — the same core — so
// the result GET /v1/jobs/{id} returns is byte-identical to the sync
// response. GET /v1/jobs lists, DELETE /v1/jobs/{id} cancels and GET
// /v1/jobs/{id}/events streams progress over SSE. Job routes run
// OUTSIDE the in-flight semaphore — submission and polling must stay
// fast while the pool grinds; the jobs.Config.Workers bound is what
// limits pipeline concurrency on the async path.

// jobKinds are the async job kinds served; each runs the JSON transport
// (ops) of the sync endpoint of the same name.
var jobKinds = []string{"protect", "plan", "apply", "detect", "fingerprint", "traceback"}

// jobRunner adapts the operations' JSON transports to jobs.Runner. It
// threads the manager's progress callback into the pipeline via
// core.WithProgress, so segment and recipient loops report through to
// SSE subscribers.
type jobRunner struct{ s *Server }

func (jr jobRunner) Run(ctx context.Context, job jobs.Job, progress func(jobs.Progress)) (json.RawMessage, error) {
	ctx = core.WithProgress(ctx, func(p core.Progress) {
		progress(jobs.Progress{Stage: p.Stage, Done: p.Done, Total: p.Total})
	})
	// Run the attempt in the submitting tenant's context so the cores
	// scope their registry reads and writes exactly like the sync path.
	// The live record (if the store still has one) carries the current
	// quotas; a since-deleted tenant's queued work still runs, scoped to
	// its ID.
	rec := tenant.Record{ID: job.TenantID, Role: tenant.RoleMember}
	if rec.ID == "" {
		rec.ID = tenant.DefaultID
	}
	if jr.s.cfg.Tenants == nil {
		rec.Role = tenant.RoleAdmin
	} else if live, ok := jr.s.cfg.Tenants.Get(rec.ID); ok {
		rec = live
	}
	ctx = withRequestInfo(ctx, &requestInfo{tenant: rec})
	if !slices.Contains(jobKinds, job.Kind) {
		return nil, fmt.Errorf("%w: %q", jobs.ErrUnknownKind, job.Kind)
	}
	resp, err := ops[job.Kind](jr.s, ctx, bytes.NewReader(job.Request))
	if err != nil {
		return nil, err
	}
	return encodeJobResult(resp)
}

// Secret extracts the job's webhook-signing secret from its request
// document: the master secret every kind already carries (key.secret on
// protect/plan/apply/detect, secret on fingerprint/traceback).
func (jr jobRunner) Secret(job jobs.Job) string {
	switch job.Kind {
	case "protect", "plan", "apply", "detect":
		var req struct {
			Key api.Key `json:"key"`
		}
		if json.Unmarshal(job.Request, &req) == nil {
			return req.Key.Secret
		}
	case "fingerprint", "traceback":
		var req struct {
			Secret string `json:"secret"`
		}
		if json.Unmarshal(job.Request, &req) == nil {
			return req.Secret
		}
	}
	return ""
}

// encodeJobResult marshals a response document exactly as writeJSON
// puts it on the wire (no HTML escaping), minus the encoder's trailing
// newline — so the stored result is byte-identical to the sync response
// body modulo that newline.
func encodeJobResult(v any) (json.RawMessage, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// control wraps the job/control handlers: body cap, error envelope and
// logging — but neither the in-flight semaphore nor the request
// deadline. Submitting or polling a job must not queue behind running
// pipelines (202 in milliseconds regardless of what the pool is doing).
func (s *Server) control(h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if err := h(w, r); err != nil {
			s.writeError(w, err)
		}
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	kind := r.PathValue("kind")
	tid := tenantIDFrom(r.Context())
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if !json.Valid(body) {
		return badRequest(fmt.Errorf("job request body is not valid JSON"))
	}
	opts := jobs.SubmitOptions{
		TenantID:       tid,
		IdempotencyKey: r.Header.Get(api.IdempotencyKeyHeader),
		Webhook:        r.Header.Get(api.WebhookHeader),
	}
	if info := requestInfoFrom(r.Context()); info != nil {
		opts.MaxActiveJobs = info.tenant.Quota.MaxActiveJobs
	}
	j, existing, err := s.jobs.Submit(kind, body, opts)
	switch {
	case errors.Is(err, jobs.ErrUnknownKind):
		return notFound(err)
	case errors.Is(err, jobs.ErrDraining):
		return overloaded(err)
	case errors.Is(err, jobs.ErrQuotaExceeded):
		return quotaExceeded(err)
	case err != nil:
		return badRequest(err)
	}
	// A fresh submission is 202 (accepted, not done); an idempotent
	// replay returns the existing job as plain 200.
	status := http.StatusAccepted
	if existing {
		status = http.StatusOK
	}
	noteJob(r.Context(), j.ID)
	writeJSON(w, status, api.JobResponse{Version: api.Version, Job: jobs.SnapshotOf(j), Result: j.Result})
	return nil
}

// tenantJob resolves a job ID within the calling tenant: a job owned
// by another tenant reads as absent, never as 403 — the job namespace
// must not leak IDs across tenants.
func (s *Server) tenantJob(ctx context.Context, id string) (jobs.Job, bool) {
	j, ok := s.jobs.Get(id)
	if !ok {
		return jobs.Job{}, false
	}
	owner := j.TenantID
	if owner == "" {
		owner = tenant.DefaultID
	}
	if owner != tenantIDFrom(ctx) {
		return jobs.Job{}, false
	}
	return j, true
}

// noteJob records the job a request created or canceled for the audit
// line.
func noteJob(ctx context.Context, id string) {
	if info := requestInfoFrom(ctx); info != nil {
		info.jobID = id
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	j, ok := s.tenantJob(r.Context(), id)
	if !ok {
		return notFound(fmt.Errorf("no job %q", id))
	}
	writeJSON(w, http.StatusOK, api.JobResponse{Version: api.Version, Job: jobs.SnapshotOf(j), Result: j.Result})
	return nil
}

// maxJobPage caps one GET /v1/jobs page.
const maxJobPage = 500

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	f := jobs.Filter{Tenant: tenantIDFrom(r.Context()), Kind: q.Get("kind"), State: jobs.State(q.Get("state"))}
	if f.State != "" && !f.State.Valid() {
		return badRequest(fmt.Errorf("unknown job state %q", f.State))
	}
	limit, err := queryInt(q.Get("limit"), 50)
	if err != nil || limit < 1 {
		return badRequest(fmt.Errorf("limit must be a positive integer"))
	}
	limit = min(limit, maxJobPage)
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		return badRequest(fmt.Errorf("offset must be a non-negative integer"))
	}
	all := s.jobs.List(f)
	resp := api.JobsListResponse{
		Version: api.Version,
		Jobs:    []jobs.Snapshot{},
		Total:   len(all),
		Offset:  offset,
		Limit:   limit,
	}
	for _, j := range all[min(offset, len(all)):min(offset+limit, len(all))] {
		resp.Jobs = append(resp.Jobs, jobs.SnapshotOf(j))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if _, ok := s.tenantJob(r.Context(), id); !ok {
		return notFound(fmt.Errorf("no job %q", id))
	}
	j, err := s.jobs.Cancel(id)
	if errors.Is(err, jobs.ErrNotFound) {
		return notFound(fmt.Errorf("no job %q", id))
	}
	if err != nil {
		return err
	}
	noteJob(r.Context(), j.ID)
	writeJSON(w, http.StatusOK, api.JobResponse{Version: api.Version, Job: jobs.SnapshotOf(j)})
	return nil
}

// sseHeartbeat is the idle-comment interval of the event stream, keeping
// intermediaries from timing out a quiet connection.
const sseHeartbeat = 15 * time.Second

// handleJobEvents serves GET /v1/jobs/{id}/events: an SSE stream of the
// job's state and progress events, starting with a snapshot of its
// current state and ending after the terminal state event. The route
// bypasses both the semaphore and the request deadline — a tail of a
// long job is supposed to stay open for as long as the job runs.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe before snapshotting: events between the two may arrive
	// twice, but none can be lost.
	sub := s.hub.Subscribe(jobs.Topic(id), 64)
	defer sub.Close()
	// Foreign tenants' jobs read as absent — the stream must not even
	// confirm the ID exists.
	j, ok := s.tenantJob(r.Context(), id)
	if !ok {
		s.writeError(w, notFound(fmt.Errorf("no job %q", id)))
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", sse.ContentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	snap, err := json.Marshal(jobs.SnapshotOf(j))
	if err != nil {
		return
	}
	if err := sse.WriteEvent(w, sse.Event{Type: jobs.EventState, Data: snap}); err != nil {
		return
	}
	_ = rc.Flush()
	if j.State.Terminal() {
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if err := sse.Comment(w, "heartbeat"); err != nil {
				return
			}
			_ = rc.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				// Hub closed (shutdown) or this consumer was dropped for
				// falling behind; either way the stream is over — the
				// client reconnects and starts from a fresh snapshot.
				return
			}
			if err := sse.WriteEvent(w, ev); err != nil {
				return
			}
			_ = rc.Flush()
			if ev.Type == jobs.EventState {
				var st jobs.Snapshot
				if json.Unmarshal(ev.Data, &st) == nil && st.State.Terminal() {
					return
				}
			}
		}
	}
}

// handleReadyz is the readiness probe: 200 while accepting work, 503
// once draining (load balancers stop routing, running jobs finish).
// Like /healthz it runs outside the semaphore — a saturated pool must
// not fail probes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, api.ReadyResponse{Ready: false, Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, api.ReadyResponse{Ready: true, Status: "ok"})
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
