// Package server is the HTTP service layer over the protection
// pipeline, speaking the internal/api wire contract: POST /v1/protect,
// /v1/plan, /v1/apply, /v1/append, /v1/detect, /v1/dispute,
// /v1/fingerprint and /v1/traceback, the recipient registry, the async
// job surface and the probes. The plan/append pair turns the service
// into an incremental-ingestion endpoint: protect once, retain the
// returned plan, and POST each nightly batch to /v1/append (409
// plan_drift asks for a re-plan).
//
// Each operation has one transport-free core (runProtect, runPlan, …)
// and up to three transports that only decode a request and encode the
// response around it:
//
//   - the JSON body (ops in this file), served synchronously;
//   - the async job (jobs.go), which runs the same JSON transport and
//     stores its response document byte for byte;
//   - text/csv (stream.go) on /v1/plan, /v1/apply, /v1/append,
//     /v1/detect and /v1/traceback, which consumes the CSV body
//     segment-at-a-time so million-row tables pass in bounded memory.
//
// Plan, detect and traceback read a core.Segments source under every
// transport: a JSON table becomes a SegmentReader (CSV document) or one
// segment (inline rows), a text/csv body a metered SegmentReader. The
// JSON write operations return the marked table inside the response
// document, so they call the in-memory core forms: the same write loop
// over one segment, with the same verdicts and bytes.
//
// Every request runs under a per-request deadline and inside a bounded
// in-flight semaphore sized off the worker configuration, so a burst of
// heavy protect calls queues instead of oversubscribing the machine;
// cancellation (client disconnect, deadline) propagates through the
// whole pipeline via context and aborts promptly.
//
// The package is cmd-agnostic: cmd/medshield-server wires flags, the
// listener and graceful shutdown around Handler(); tests drive the same
// handler through httptest.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/jobs"
	"repro/internal/ontology"
	"repro/internal/ownership"
	"repro/internal/pool"
	"repro/internal/ratelimit"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/sse"
	"repro/internal/tenant"
)

// Config parameterizes the service.
type Config struct {
	// Trees are the domain hierarchy trees served; nil selects the
	// builtin medical ontologies.
	Trees map[string]*dht.Tree
	// Defaults is the server-level pipeline configuration; per-request
	// api.Options overlay it. Zero K defaults to 20 with AutoEpsilon.
	Defaults core.Config
	// RequestTimeout is the per-request deadline (default 60s).
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served pipeline requests. 0 sizes
	// it off the effective worker count: one fanned-out pipeline run
	// already saturates the cores, so a small multiple of 1 is enough to
	// keep the machine busy while bounding memory.
	MaxInflight int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// MaxFingerprintRecipients bounds one /v1/fingerprint request: each
	// recipient costs a marked copy of the table in the response, so the
	// count is a memory-amplification lever. 0 selects the default (128);
	// fleets larger than the cap should fingerprint in batches.
	MaxFingerprintRecipients int
	// Registry is the recipient registry behind /v1/fingerprint,
	// /v1/recipients and /v1/traceback; nil selects an in-memory store
	// (records then live for the process only).
	Registry *registry.Store
	// Jobs tunes the async job layer behind /v1/jobs: Store (nil
	// selects in-memory — jobs then die with the process), Workers,
	// MaxAttempts, AttemptTimeout and TTL; tests also set its Clock and
	// Deliver. The retry and webhook schedules are fixed (see
	// internal/jobs). The Runner, Kinds, Hub, ClassifyError and Logger
	// fields are owned by the server and overwritten.
	Jobs jobs.Config
	// Logger receives one structured record per served request (request
	// ID, tenant, route, status, duration) and one per job lifecycle
	// event (job, kind, state); nil disables both.
	Logger *slog.Logger
	// Tenants enables bearer authentication and per-tenant isolation:
	// every request must present a token from this store. nil runs the
	// server open — every request executes as the built-in "default"
	// admin tenant with no quotas (the single-operator deployment).
	Tenants *tenant.Store
	// Audit receives one append-only JSONL record per mutating request;
	// nil disables auditing.
	Audit *audit.Logger
	// IPRatePerMinute/IPBurst bound pre-authentication requests per
	// remote IP — the token-guessing throttle. 0 disables the limiter.
	IPRatePerMinute int
	IPBurst         int
}

// Server implements the handlers.
type Server struct {
	cfg           Config
	sem           chan struct{}
	hub           *sse.Hub
	jobs          *jobs.Manager
	log           *slog.Logger
	metrics       *serverMetrics
	tenantLimiter *ratelimit.Limiter
	ipLimiter     *ratelimit.Limiter
}

// New validates the configuration eagerly — an invalid Defaults fails
// here, not on the first request — and returns the service.
func New(cfg Config) (*Server, error) {
	if cfg.Trees == nil {
		cfg.Trees = ontology.Trees()
	}
	if cfg.Defaults.K == 0 {
		cfg.Defaults.K = 20
		cfg.Defaults.AutoEpsilon = true
	}
	// Probe the defaults through the real constructor so misconfiguration
	// surfaces at startup.
	fw, err := core.New(cfg.Trees, cfg.Defaults)
	if err != nil {
		return nil, fmt.Errorf("server: invalid defaults: %w", err)
	}
	cfg.Defaults = fw.Config()
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxInflight <= 0 {
		// One pipeline run fans out over Workers cores; two in flight
		// keep the machine busy while one drains, without unbounded
		// memory growth under a burst.
		cfg.MaxInflight = 2
		if cfg.Defaults.Workers == 1 {
			// Sequential runs leave cores idle; admit one per core.
			cfg.MaxInflight = pool.Resolve(0)
		}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MaxFingerprintRecipients <= 0 {
		cfg.MaxFingerprintRecipients = 128
	}
	if cfg.Registry == nil {
		cfg.Registry = registry.New()
	}
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight), hub: sse.NewHub()}
	jc := cfg.Jobs
	jc.Runner = jobRunner{s: s}
	jc.Kinds = jobKinds
	jc.Hub = s.hub
	jc.ClassifyError = func(err error) string {
		code, _ := s.classify(err)
		return code
	}
	if jc.Store == nil {
		jc.Store = jobs.NewStore()
	}
	jc.Logger = cfg.Logger
	mgr, err := jobs.New(jc)
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	s.log = cfg.Logger
	s.metrics = newServerMetrics(func() map[string]int64 {
		out := make(map[string]int64)
		for _, j := range s.jobs.List(jobs.Filter{}) {
			out[string(j.State)]++
		}
		return out
	})
	s.tenantLimiter = ratelimit.New(nil)
	if cfg.IPRatePerMinute > 0 {
		if s.cfg.IPBurst <= 0 {
			s.cfg.IPBurst = max(1, cfg.IPRatePerMinute/6)
		}
		s.ipLimiter = ratelimit.New(nil)
	}
	return s, nil
}

// Drain stops job intake: /readyz turns 503 and new submissions are
// refused while running jobs finish. The first stage of a graceful
// shutdown.
func (s *Server) Drain() { s.jobs.Drain() }

// Close shuts the async layer down: running jobs are cancelled with the
// drain cause (they go back to queued on disk and resume on the next
// boot), the job store is flushed, and the event hub closes every
// stream. ctx bounds the wait.
func (s *Server) Close(ctx context.Context) error {
	err := s.jobs.Close(ctx)
	s.hub.Close()
	return err
}

// Handler returns the route mux. Every route runs inside the tenant
// plane (see plane.go); probes and /metrics are open, mutating routes
// are audited.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	probe := planeOpts{open: true}
	read := planeOpts{}
	mutate := planeOpts{audit: true}
	// Probes and job control run outside the in-flight semaphore: a
	// saturated pipeline pool must fail neither health checks nor job
	// submission/polling.
	mux.HandleFunc("GET /v1/healthz", s.plane("/v1/healthz", probe, s.handleHealthz))
	mux.HandleFunc("GET /healthz", s.plane("/healthz", probe, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.plane("/readyz", probe, s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.plane("/metrics", probe, s.handleMetrics))
	mux.HandleFunc("POST /v1/jobs/{kind}", s.plane("/v1/jobs/{kind}", mutate, s.control(s.handleJobSubmit)))
	mux.HandleFunc("GET /v1/jobs", s.plane("/v1/jobs", read, s.control(s.handleJobList)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.plane("/v1/jobs/{id}", read, s.control(s.handleJobGet)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.plane("/v1/jobs/{id}", mutate, s.control(s.handleJobCancel)))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.plane("/v1/jobs/{id}/events", read, s.handleJobEvents))
	mux.HandleFunc("POST /v1/protect", s.plane("/v1/protect", mutate, s.pipeline(s.serve("protect", nil))))
	mux.HandleFunc("POST /v1/plan", s.plane("/v1/plan", mutate, s.streamPipeline(s.serve("plan", s.handlePlanCSV))))
	mux.HandleFunc("POST /v1/apply", s.plane("/v1/apply", mutate, s.streamPipeline(s.serve("apply", s.writeCSV((*core.Framework).ApplyStream)))))
	mux.HandleFunc("POST /v1/append", s.plane("/v1/append", mutate, s.streamPipeline(s.serve("append", s.writeCSV((*core.Framework).AppendStream)))))
	mux.HandleFunc("POST /v1/detect", s.plane("/v1/detect", mutate, s.streamPipeline(s.serve("detect", s.handleDetectCSV))))
	mux.HandleFunc("POST /v1/dispute", s.plane("/v1/dispute", mutate, s.pipeline(s.serve("dispute", nil))))
	mux.HandleFunc("POST /v1/fingerprint", s.plane("/v1/fingerprint", mutate, s.pipeline(s.serve("fingerprint", nil))))
	mux.HandleFunc("POST /v1/traceback", s.plane("/v1/traceback", mutate, s.streamPipeline(s.serve("traceback", s.handleTracebackCSV))))
	mux.HandleFunc("GET /v1/recipients", s.plane("/v1/recipients", read, s.pipeline(s.handleRecipientsList)))
	mux.HandleFunc("POST /v1/recipients", s.plane("/v1/recipients", mutate, s.pipeline(s.handleRecipientImport)))
	mux.HandleFunc("GET /v1/recipients/{id}", s.plane("/v1/recipients/{id}", read, s.pipeline(s.handleRecipientGet)))
	mux.HandleFunc("DELETE /v1/recipients/{id}", s.plane("/v1/recipients/{id}", mutate, s.pipeline(s.handleRecipientDelete)))
	return mux
}

// pipeline wraps a handler with the service envelope: body size cap,
// per-request deadline, the bounded in-flight semaphore, and request
// logging. Handlers return (status, error) and write nothing on error —
// the wrapper owns the error envelope.
func (s *Server) pipeline(h handler) http.HandlerFunc {
	return s.envelope(h, false)
}

// streamPipeline is the envelope of the endpoints with a text/csv
// streaming mode (/v1/plan, /v1/apply, /v1/append, /v1/detect,
// /v1/traceback): identical except that a CSV
// body skips the whole-body MaxBytesReader — the stream is metered per
// segment instead (meteredSegments), so tables larger than MaxBodyBytes
// pass while peak buffering stays bounded by it. JSON bodies on the
// same routes keep the whole-body cap.
func (s *Server) streamPipeline(h handler) http.HandlerFunc {
	return s.envelope(h, true)
}

func (s *Server) envelope(h handler, streaming bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if !(streaming && isCSVRequest(r)) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			if err := h(w, r); err != nil {
				s.writeError(w, err)
			}
		case <-ctx.Done():
			// Deadline spent waiting for a slot means the server is
			// saturated, not that the pipeline was slow — report
			// overloaded (503) so clients and load balancers shed/retry.
			// A client that walked away keeps the cancellation code.
			err := fmt.Errorf("server: waiting for capacity: %w", ctx.Err())
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				err = overloaded(err)
			}
			s.writeError(w, err)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:   "ok",
		Version:  api.Version,
		Workers:  pool.Resolve(s.cfg.Defaults.Workers),
		Inflight: len(s.sem),
		Capacity: cap(s.sem),
	})
}

// handler is the signature of a route behind the service envelope.
type handler func(w http.ResponseWriter, r *http.Request) error

// op is the JSON transport of one operation: decode its request
// document and run its core. The synchronous handler and the async job
// runner both go through it, so their response documents are
// byte-identical.
type op func(s *Server, ctx context.Context, body io.Reader) (any, error)

// jsonOp builds an op from a core over the request document, decoded
// under the strict api.DecodeJSON rules. A decode failure is tagged
// bad_request, which the job layer treats as permanent: a malformed
// body never deserves a retry.
func jsonOp[Req, Resp any](run func(*Server, context.Context, Req) (Resp, error)) op {
	return func(s *Server, ctx context.Context, body io.Reader) (any, error) {
		var req Req
		if err := api.DecodeJSON(body, &req); err != nil {
			return nil, badRequest(err)
		}
		resp, err := run(s, ctx, req)
		if err != nil {
			return nil, err
		}
		return resp, nil
	}
}

// overTable adapts a segment core (plan, detect, traceback) to the JSON
// transports: its source is the request's own table payload.
func overTable[Req, Resp any](table func(Req) api.Table, run func(*Server, context.Context, Req, core.Segments) (Resp, error)) func(*Server, context.Context, Req) (Resp, error) {
	return func(s *Server, ctx context.Context, req Req) (Resp, error) {
		src, err := s.segmentsOf(ctx, table(req))
		if err != nil {
			var zero Resp
			return zero, err
		}
		return run(s, ctx, req, src)
	}
}

// ops are the JSON transports of the pipeline operations, keyed by
// route name; jobKinds names the ones also served as async jobs.
var ops = map[string]op{
	"protect":     jsonOp((*Server).runProtect),
	"plan":        jsonOp(overTable(func(r api.PlanRequest) api.Table { return r.Table }, (*Server).runPlan)),
	"apply":       jsonOp((*Server).runApply),
	"append":      jsonOp((*Server).runAppend),
	"detect":      jsonOp(overTable(func(r api.DetectRequest) api.Table { return r.Table }, (*Server).runDetect)),
	"dispute":     jsonOp((*Server).runDispute),
	"fingerprint": jsonOp((*Server).runFingerprint),
	"traceback":   jsonOp(overTable(func(r api.TracebackRequest) api.Table { return r.Table }, (*Server).runTraceback)),
}

// serve is the synchronous route of operation name: the text/csv
// transport when the route has one and the request selects it, the
// JSON transport otherwise.
func (s *Server) serve(name string, csv handler) handler {
	run := ops[name]
	return func(w http.ResponseWriter, r *http.Request) error {
		if csv != nil && isCSVRequest(r) {
			return csv(w, r)
		}
		resp, err := run(s, r.Context(), r.Body)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	}
}

// runProtect is the core of POST /v1/protect: plan and apply in memory.
func (s *Server) runProtect(ctx context.Context, req api.ProtectRequest) (api.ProtectResponse, error) {
	fw, tbl, key, err := s.prepare(ctx, req.Table, req.Key, req.Options, req.Output)
	if err != nil {
		return api.ProtectResponse{}, err
	}
	prot, err := fw.ProtectContext(ctx, tbl, key)
	if err != nil {
		return api.ProtectResponse{}, err
	}
	return protectedResponse(prot, req.Output)
}

// runApply is the core of POST /v1/apply's JSON mode. Its response
// carries the marked table, so it calls the in-memory ApplyContext,
// which is ApplyStream's write loop over one segment.
func (s *Server) runApply(ctx context.Context, req api.ApplyRequest) (api.ApplyResponse, error) {
	fw, tbl, key, err := s.prepare(ctx, req.Table, req.Key, defaultK(req.Options, req.Plan.K), req.Output)
	if err != nil {
		return api.ApplyResponse{}, err
	}
	prot, err := fw.ApplyContext(ctx, tbl, &req.Plan, key)
	if err != nil {
		return api.ApplyResponse{}, err
	}
	resp, err := protectedResponse(prot, req.Output)
	return api.ApplyResponse(resp), err
}

// protectedResponse shapes a marked table and its plan into the
// protect/apply response document.
func protectedResponse(prot *core.Protected, output string) (api.ProtectResponse, error) {
	outTbl, err := api.EncodeTable(prot.Table, output)
	if err != nil {
		return api.ProtectResponse{}, badRequest(err)
	}
	return api.ProtectResponse{
		Version:    api.Version,
		Table:      outTbl,
		Provenance: prot.Provenance,
		Plan:       prot.Plan,
		Stats: api.ProtectStats{
			Rows:           prot.Table.NumRows(),
			TuplesSelected: prot.Embed.TuplesSelected,
			BitsEmbedded:   prot.Embed.BitsEmbedded,
			CellsChanged:   prot.Embed.CellsChanged,
			EffectiveK:     prot.Plan.EffectiveK,
			Epsilon:        prot.Provenance.Epsilon,
			AvgLoss:        prot.Plan.AvgLoss,
		},
	}, nil
}

// runAppend is the core of POST /v1/append's JSON mode: the delta batch
// is protected in memory under the request's plan.
func (s *Server) runAppend(ctx context.Context, req api.AppendRequest) (api.AppendResponse, error) {
	fw, tbl, key, err := s.prepare(ctx, req.Table, req.Key, defaultK(req.Options, req.Plan.K), req.Output)
	if err != nil {
		return api.AppendResponse{}, err
	}
	app, err := fw.AppendContext(ctx, tbl, &req.Plan, key)
	if err != nil {
		return api.AppendResponse{}, err
	}
	outTbl, err := api.EncodeTable(app.Table, req.Output)
	if err != nil {
		return api.AppendResponse{}, badRequest(err)
	}
	return api.AppendResponse{
		Version: api.Version,
		Table:   outTbl,
		Plan:    app.Plan,
		Stats: api.AppendStats{
			Rows:           app.Table.NumRows(),
			TotalRows:      app.Plan.Rows,
			TuplesSelected: app.Embed.TuplesSelected,
			BitsEmbedded:   app.Embed.BitsEmbedded,
			CellsChanged:   app.Embed.CellsChanged,
			NewBins:        app.NewBins,
			Suppressed:     app.Suppressed,
		},
	}, nil
}

// runPlan is the core of POST /v1/plan: the sketch planner over src,
// whichever transport supplied it.
func (s *Server) runPlan(ctx context.Context, req api.PlanRequest, src core.Segments) (api.PlanResponse, error) {
	fw, key, err := s.keyed(req.Key, req.Options)
	if err != nil {
		return api.PlanResponse{}, err
	}
	ps, err := fw.PlanStream(ctx, src, key)
	if err != nil {
		return api.PlanResponse{}, err
	}
	return api.PlanResponse{Version: api.Version, Plan: *ps.Plan, Stats: planStatsOf(ps.Rows, ps.Plan)}, nil
}

// planStatsOf summarizes a plan searched over rows rows.
func planStatsOf(rows int, plan *core.Plan) api.PlanStats {
	return api.PlanStats{
		Rows:       rows,
		K:          plan.K,
		Epsilon:    plan.Epsilon,
		EffectiveK: plan.EffectiveK,
		AvgLoss:    plan.AvgLoss,
	}
}

// runDetect is the core of POST /v1/detect: the vote harvest over src,
// whichever transport supplied it.
func (s *Server) runDetect(ctx context.Context, req api.DetectRequest, src core.Segments) (api.DetectResponse, error) {
	fw, key, err := s.keyed(req.Key, defaultK(req.Options, req.Provenance.K))
	if err != nil {
		return api.DetectResponse{}, err
	}
	det, err := fw.DetectStream(ctx, src, req.Provenance, key)
	if err != nil {
		return api.DetectResponse{}, err
	}
	return api.DetectResponse{
		Version:  api.Version,
		Match:    det.Match,
		MarkLoss: det.MarkLoss,
		Mark:     det.Result.Mark.String(),
		Stats: api.DetectStats{
			TuplesSelected: det.Result.Stats.TuplesSelected,
			VotesCast:      det.Result.Stats.VotesCast,
			BitsRead:       det.Result.Stats.BitsRead,
			SkippedCells:   det.Result.Stats.SkippedCells,
		},
	}, nil
}

// runDispute is the core of POST /v1/dispute.
func (s *Server) runDispute(ctx context.Context, req api.DisputeRequest) (api.DisputeResponse, error) {
	var zero api.DisputeResponse
	fw, tbl, ownerKey, err := s.prepare(ctx, req.Table, req.OwnerKey, defaultK(req.Options, req.Provenance.K), "")
	if err != nil {
		return zero, err
	}
	rivals := make([]ownership.Claim, 0, len(req.Rivals))
	for i, rc := range req.Rivals {
		if rc.Key.Secret == "" || rc.Key.Eta == 0 {
			return zero, badRequest(fmt.Errorf("rival %d: key needs a non-empty secret and eta >= 1", i))
		}
		if rc.Duplication < 0 {
			return zero, badRequest(fmt.Errorf("rival %d: duplication must be >= 0 (0 = the provenance's)", i))
		}
		mark, err := bitstr.FromString(rc.Mark)
		if err != nil {
			return zero, badRequest(fmt.Errorf("rival %d: mark: %w", i, err))
		}
		rivals = append(rivals, ownership.Claim{
			Claimant:    rc.Claimant,
			V:           rc.V,
			Key:         crypt.NewWatermarkKeyFromSecret(rc.Key.Secret, rc.Key.Eta),
			Mark:        mark,
			Duplication: rc.Duplication,
		})
	}
	verdicts, err := fw.DisputeContext(ctx, tbl, req.Provenance, ownerKey, rivals)
	if err != nil {
		return zero, err
	}
	out := make([]api.Verdict, len(verdicts))
	for i, v := range verdicts {
		out[i] = api.Verdict{
			Claimant:     v.Claimant,
			DecryptOK:    v.DecryptOK,
			StatisticOK:  v.StatisticOK,
			MarkDerived:  v.MarkDerived,
			MarkDetected: v.MarkDetected,
			MarkLoss:     v.MarkLoss,
			Valid:        v.Valid,
			Reason:       v.Reason,
		}
	}
	return api.DisputeResponse{Version: api.Version, Verdicts: out}, nil
}

// runFingerprint is the core of POST /v1/fingerprint. Inline rows come
// back from the in-memory fan-out (core.FingerprintContext). CSV output
// rides the streaming fan-out (core.FingerprintStream: one plan, one
// transform, one selection per recipient key, then per-segment
// embed+encode), so the peak resident table state is one segment per
// recipient, not N marked tables. Both arms share the registration and
// the response document.
func (s *Server) runFingerprint(ctx context.Context, req api.FingerprintRequest) (api.FingerprintResponse, error) {
	var zero api.FingerprintResponse
	if err := checkOutput(req.Output); err != nil {
		return zero, err
	}
	if req.Secret == "" || req.Eta == 0 {
		return zero, badRequest(fmt.Errorf("fingerprint needs a non-empty secret and eta >= 1"))
	}
	if len(req.Recipients) == 0 {
		return zero, badRequest(fmt.Errorf("fingerprint needs at least one recipient"))
	}
	if len(req.Recipients) > s.cfg.MaxFingerprintRecipients {
		// Each recipient costs a marked copy of the table in the response;
		// an uncapped count is a memory amplifier, not a use case.
		return zero, tooManyRecipients(fmt.Errorf("fingerprint accepts at most %d recipients per request, got %d", s.cfg.MaxFingerprintRecipients, len(req.Recipients)))
	}
	fw, err := s.frameworkFor(req.Options)
	if err != nil {
		return zero, err
	}
	tbl, err := decodeTable(ctx, req.Table)
	if err != nil {
		return zero, err
	}
	recipients := make([]core.Recipient, len(req.Recipients))
	for i, ref := range req.Recipients {
		recipients[i] = core.Recipient{
			ID:  ref.ID,
			Key: crypt.RecipientWatermarkKey(req.Secret, ref.ID, req.Eta),
		}
	}
	var results []core.FingerprintResult
	var bufs []strings.Builder
	if req.Output == api.OutputCSV {
		bufs = make([]strings.Builder, len(recipients))
		outs := make([]io.Writer, len(recipients))
		for i := range outs {
			outs[i] = &bufs[i]
		}
		results, err = fw.FingerprintStream(ctx, tbl, recipients, outs)
	} else {
		results, err = fw.FingerprintContext(ctx, tbl, recipients)
	}
	if err != nil {
		return zero, err
	}
	// An empty table encodes to just the wire column list.
	shape, err := api.EncodeTable(relation.NewTable(tbl.Schema()), api.OutputRows)
	if err != nil {
		return zero, err
	}
	resp := api.FingerprintResponse{
		Version:    api.Version,
		Recipients: make([]api.FingerprintRecipient, len(recipients)),
		Stats:      planStatsOf(tbl.NumRows(), &results[0].Protected.Plan),
	}
	records := make([]registry.Record, len(recipients))
	for i, r := range recipients {
		prot := results[i].Protected
		table := api.Table{Columns: shape.Columns}
		if bufs != nil {
			table.CSV = bufs[i].String()
		} else if table, err = api.EncodeTable(prot.Table, req.Output); err != nil {
			return zero, badRequest(err)
		}
		records[i] = registry.RecordOf(r.ID, r.Key, prot.Plan)
		records[i].TenantID = tenantIDFrom(ctx)
		records[i].CreatedAt = time.Now().UTC().Format(time.RFC3339)
		resp.Recipients[i] = api.FingerprintRecipient{
			ID:             r.ID,
			KeyFingerprint: r.Key.Fingerprint(),
			Table:          table,
			Provenance:     prot.Provenance,
			TuplesSelected: prot.Embed.TuplesSelected,
			BitsEmbedded:   prot.Embed.BitsEmbedded,
			CellsChanged:   prot.Embed.CellsChanged,
		}
	}
	// Atomic registration: either every recipient of this run lands in
	// the registry or none does — a mid-batch conflict must not leave a
	// prefix of records durably registered for copies the client never
	// received.
	if err := s.cfg.Registry.PutAll(records); err != nil {
		return zero, err
	}
	return resp, nil
}

// runTraceback is the core of POST /v1/traceback: rank the calling
// tenant's registered recipients against the suspect in src, whichever
// transport supplied it.
func (s *Server) runTraceback(ctx context.Context, req api.TracebackRequest, src core.Segments) (api.TracebackResponse, error) {
	var zero api.TracebackResponse
	if req.Secret == "" {
		return zero, badRequest(fmt.Errorf("traceback needs the master secret"))
	}
	// Traceback only ever sees the calling tenant's registrations —
	// candidate sets never cross tenants.
	recs := s.cfg.Registry.ListIn(tenantIDFrom(ctx))
	if len(recs) == 0 {
		return zero, badRequest(fmt.Errorf("no recipients registered; run /v1/fingerprint or import records first"))
	}
	// Records the secret does not verify (foreign imports, stale
	// entries) are skipped and reported, not fatal; a secret verifying
	// nothing is a wrong secret (403).
	cands, skipped, err := registry.CandidatesFromSecret(recs, req.Secret)
	if err != nil {
		return zero, err // wraps core.ErrKeyMismatch -> 403
	}
	fw, err := s.frameworkFor(defaultK(req.Options, recs[0].Plan.K))
	if err != nil {
		return zero, err
	}
	tb, err := fw.TracebackStream(ctx, src, cands)
	if err != nil {
		return zero, err
	}
	resp := api.TracebackResponse{
		Version:  api.Version,
		Verdicts: make([]api.TracebackVerdict, len(tb.Verdicts)),
		Culprit:  tb.Culprit,
		Matches:  tb.Matches,
		Skipped:  skipped,
	}
	for i, v := range tb.Verdicts {
		resp.Verdicts[i] = api.TracebackVerdict{
			RecipientID: v.RecipientID,
			Mark:        v.Mark,
			MarkLoss:    v.MarkLoss,
			MatchRatio:  v.MatchRatio,
			Match:       v.Match,
			Confidence:  v.Confidence,
			VotesCast:   v.VotesCast,
		}
	}
	return resp, nil
}

func (s *Server) handleRecipientsList(w http.ResponseWriter, r *http.Request) error {
	recs := s.cfg.Registry.ListIn(tenantIDFrom(r.Context()))
	resp := api.RecipientsResponse{Version: api.Version, Recipients: make([]api.RecipientSummary, len(recs))}
	for i, rec := range recs {
		resp.Recipients[i] = api.SummaryOf(rec)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// verifyRecordSecret authorizes access to one registry record: the
// caller must present the owner's master secret (api.SecretHeader) and
// it must re-derive the record's registered key. The registry is
// server-held owner state — unlike the stateless pipeline endpoints,
// reading a full record (its plan) or mutating it without proof of the
// secret would let any reachable client exfiltrate or destroy the
// owner's traceback ability.
func verifyRecordSecret(r *http.Request, rec registry.Record) error {
	secret := r.Header.Get(api.SecretHeader)
	if secret == "" {
		return badRequest(fmt.Errorf("registry record access needs the master secret in the %s header", api.SecretHeader))
	}
	// Constant-time: the fingerprint is derived from the secret, so a
	// byte-wise early exit would leak match-prefix length to a caller
	// timing guesses.
	derived := crypt.RecipientWatermarkKey(secret, rec.RecipientID, rec.Eta).Fingerprint()
	if subtle.ConstantTimeCompare([]byte(derived), []byte(rec.KeyFingerprint)) != 1 {
		return fmt.Errorf("server: secret does not match recipient %q's registered key: %w", rec.RecipientID, core.ErrKeyMismatch)
	}
	return nil
}

func (s *Server) handleRecipientGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	rec, ok := s.cfg.Registry.GetIn(tenantIDFrom(r.Context()), id)
	if !ok {
		return notFound(fmt.Errorf("recipient %q is not registered", id))
	}
	if err := verifyRecordSecret(r, rec); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, api.RecipientResponse{Version: api.Version, Recipient: rec})
	return nil
}

func (s *Server) handleRecipientDelete(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	tid := tenantIDFrom(r.Context())
	rec, ok := s.cfg.Registry.GetIn(tid, id)
	if !ok {
		return notFound(fmt.Errorf("recipient %q is not registered", id))
	}
	if err := verifyRecordSecret(r, rec); err != nil {
		return err
	}
	had, err := s.cfg.Registry.DeleteIn(tid, id)
	if err != nil {
		return err
	}
	if !had {
		return notFound(fmt.Errorf("recipient %q is not registered", id))
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleRecipientImport(w http.ResponseWriter, r *http.Request) error {
	var rec registry.Record
	if err := api.DecodeJSON(r.Body, &rec); err != nil {
		return badRequest(err)
	}
	// The record lands in the caller's tenant regardless of any
	// tenant_id in the document — imports cannot plant records in a
	// foreign namespace.
	rec.TenantID = tenantIDFrom(r.Context())
	if err := rec.Validate(); err != nil {
		return badRequest(err)
	}
	// Importing requires the secret the record was fingerprinted under:
	// it proves the caller owns the record and keeps foreign-secret
	// records (which traceback could never verify) out of the registry.
	if err := verifyRecordSecret(r, rec); err != nil {
		return err
	}
	if err := s.cfg.Registry.Put(rec); err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, api.RecipientResponse{Version: api.Version, Recipient: rec})
	return nil
}

// maxEnumLimit caps the per-request exhaustive-search override; the
// default is binning.DefaultEnumLimit (4096) and anything far beyond it
// is a denial-of-service lever, not a tuning knob.
const maxEnumLimit = 1 << 16

// prepare builds the per-request framework, key and in-memory table of
// the write operations: check the output format before any work, then
// keyed, then decodeTable.
func (s *Server) prepare(ctx context.Context, t api.Table, k api.Key, opts *api.Options, output string) (*core.Framework, *relation.Table, crypt.WatermarkKey, error) {
	if err := checkOutput(output); err != nil {
		return nil, nil, crypt.WatermarkKey{}, err
	}
	fw, key, err := s.keyed(k, opts)
	if err != nil {
		return nil, nil, key, err
	}
	tbl, err := decodeTable(ctx, t)
	return fw, tbl, key, err
}

// checkOutput rejects an unknown output format before the pipeline
// runs; EncodeTable would catch it only after a full (wasted) pass.
func checkOutput(output string) error {
	switch output {
	case "", api.OutputRows, api.OutputCSV:
		return nil
	}
	return badRequest(fmt.Errorf("unknown output format %q (want %q or %q)", output, api.OutputRows, api.OutputCSV))
}

// keyed builds the per-request framework and derives the key set.
func (s *Server) keyed(k api.Key, opts *api.Options) (*core.Framework, crypt.WatermarkKey, error) {
	fw, err := s.frameworkFor(opts)
	if err != nil {
		return nil, crypt.WatermarkKey{}, err
	}
	if k.Secret == "" || k.Eta == 0 {
		return nil, crypt.WatermarkKey{}, badRequest(fmt.Errorf("key needs a non-empty secret and eta >= 1"))
	}
	return fw, crypt.NewWatermarkKeyFromSecret(k.Secret, k.Eta), nil
}

// defaultK fills an absent K option from the plan or provenance the
// request runs under: apply, append, detect, dispute and traceback do
// not re-bin, so the framework K only has to satisfy validation.
func defaultK(opts *api.Options, k int) *api.Options {
	var o api.Options
	if opts != nil {
		o = *opts
	}
	if o.K == 0 {
		o.K = max(k, 1)
	}
	return &o
}

// decodeTable materializes a JSON table payload under the tenant's row
// quota.
func decodeTable(ctx context.Context, t api.Table) (*relation.Table, error) {
	tbl, err := api.DecodeTable(t)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := checkRowQuota(ctx, tbl.NumRows()); err != nil {
		return nil, err
	}
	return tbl, nil
}

// segmentsOf is the source a segment core reads a JSON table payload
// from: a CSV document streams through a SegmentReader, inline rows are
// decoded once and yielded as one segment. Either way every segment
// counts toward the tenant's row quota.
func (s *Server) segmentsOf(ctx context.Context, t api.Table) (core.Segments, error) {
	if t.CSV == "" || len(t.Rows) > 0 {
		tbl, err := api.DecodeTable(t)
		if err != nil {
			return nil, badRequest(err)
		}
		return &quotaSegments{ctx: ctx, src: &relation.OneSegment{Table: tbl}}, nil
	}
	schema, err := api.SchemaOf(t.Columns)
	if err != nil {
		return nil, badRequest(err)
	}
	sr, err := relation.NewSegmentReader(strings.NewReader(t.CSV), schema, s.cfg.Defaults.Chunk)
	if err != nil {
		return nil, badRequest(err)
	}
	return &quotaSegments{ctx: ctx, src: sr}, nil
}

// frameworkFor overlays the request options on the server defaults and
// constructs (and so validates) the framework. Remote resource levers
// are clamped: Workers never exceeds the machine's core count (more
// never changes output, only scheduler pressure) and EnumLimit is
// bounded by maxEnumLimit.
func (s *Server) frameworkFor(opts *api.Options) (*core.Framework, error) {
	cfg, err := opts.Apply(s.cfg.Defaults)
	if err != nil {
		return nil, badRequest(err)
	}
	if cores := pool.Resolve(0); cfg.Workers > cores {
		cfg.Workers = cores
	}
	if cfg.Workers < 0 {
		cfg.Workers = 1
	}
	if cfg.EnumLimit > maxEnumLimit {
		return nil, badRequest(fmt.Errorf("enum_limit %d exceeds the server cap %d", cfg.EnumLimit, maxEnumLimit))
	}
	return core.New(s.cfg.Trees, cfg)
}

// tagged is the server's one error tag: it gives the wrapped error its
// wire code, HTTP status and, for rate_limited, the bucket's
// Retry-After promise.
type tagged struct {
	code       string
	status     int
	retryAfter time.Duration
	err        error
}

func (e *tagged) Error() string { return e.err.Error() }
func (e *tagged) Unwrap() error { return e.err }

// Request-shape problems, registry and job misses, capacity-wait
// timeouts and fingerprint batches over the recipient cap (a distinct
// code: split the batch, do not fix its shape).
func badRequest(err error) error { return &tagged{api.CodeBadRequest, http.StatusBadRequest, 0, err} }
func notFound(err error) error   { return &tagged{api.CodeNotFound, http.StatusNotFound, 0, err} }
func overloaded(err error) error {
	return &tagged{api.CodeOverloaded, http.StatusServiceUnavailable, 0, err}
}
func tooManyRecipients(err error) error {
	return &tagged{api.CodeTooManyRecipients, http.StatusBadRequest, 0, err}
}

// tagIn returns the tag with the given code in err's tree, or nil.
func tagIn(err error, code string) *tagged {
	switch e := err.(type) {
	case *tagged:
		if e.code == code {
			return e
		}
		return tagIn(e.err, code)
	case interface{ Unwrap() error }:
		return tagIn(e.Unwrap(), code)
	case interface{ Unwrap() []error }:
		for _, inner := range e.Unwrap() {
			if t := tagIn(inner, code); t != nil {
				return t
			}
		}
	}
	return nil
}

// precedence is the order classify tests for codes: the first present
// in err's tree wins. A body over the size cap and a registry conflict
// are not tags but keep their places, so both outrank the bad_request
// tag a decode or store error is wrapped in.
var precedence = [...]string{
	api.CodeUnauthorized, api.CodeForbidden, api.CodeRateLimited, api.CodeQuotaExceeded,
	api.CodeOverloaded, api.CodePayloadTooLarge, api.CodeNotFound, api.CodeTooManyRecipients,
	api.CodeConflict, api.CodeBadRequest,
}

// classify maps an error to its wire code and status: the server's own
// tags first, then the pipeline sentinels via api.Classify.
func (s *Server) classify(err error) (code string, status int) {
	for _, code := range precedence {
		switch code {
		case api.CodePayloadTooLarge:
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return code, http.StatusRequestEntityTooLarge
			}
		case api.CodeConflict:
			if errors.Is(err, registry.ErrConflict) {
				return code, http.StatusConflict
			}
		default:
			if t := tagIn(err, code); t != nil {
				return code, t.status
			}
		}
	}
	return api.Classify(err)
}

func (s *Server) writeError(w http.ResponseWriter, err error) int {
	code, status := s.classify(err)
	switch status {
	case http.StatusUnauthorized:
		w.Header().Set("WWW-Authenticate", "Bearer")
	case http.StatusTooManyRequests:
		if t := tagIn(err, api.CodeRateLimited); t != nil && t.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(t.retryAfter/time.Second)))
		}
	}
	if sw, ok := w.(*statusWriter); ok {
		// Surface the wire code to the plane's audit record.
		sw.code = code
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{Code: code, Message: err.Error()}})
	return status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing useful to do on error
}

// logWarn emits an internal (non-access) note on the structured
// logger; a no-op without one.
func (s *Server) logWarn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}
