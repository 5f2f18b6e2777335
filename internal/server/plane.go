// The tenant service plane: every route registered by Handler() runs
// inside plane(), which authenticates the bearer token, applies the
// per-IP and per-tenant token buckets, meters the request into the
// Prometheus registry, and emits the structured access-log line and
// (for mutating routes) exactly one audit record. Handlers downstream
// see the resolved tenant in the request context and never touch
// Authorization themselves.
//
// With no tenant store configured (Config.Tenants == nil) the plane
// runs open: every request executes as a built-in "default" admin
// tenant with no quotas — the single-operator deployment and the
// pre-multi-tenant behavior.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/tenant"
)

// planeOpts selects per-route plane behavior.
type planeOpts struct {
	// open skips authentication and rate limiting: probes and /metrics
	// (which gates itself on loopback-or-admin).
	open bool
	// audited routes emit one audit record per request.
	audit bool
}

// requestInfo rides the request context through the plane: the request
// ID, the resolved tenant, and the counters handlers fill in as they
// work. The rows counter is atomic because streaming handlers note
// rows from inside pipeline callbacks.
type requestInfo struct {
	id     string
	tenant tenant.Record
	rows   atomic.Int64
	// jobID is set by the job handlers so audit lines reference the
	// job they created or canceled (written and read on the request
	// goroutine).
	jobID string
}

type ctxKey int

const infoKey ctxKey = 0

// requestInfoFrom returns the plane's per-request state, or nil when
// the context does not come from the plane (direct handler tests).
func requestInfoFrom(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(infoKey).(*requestInfo)
	return info
}

// withRequestInfo attaches info to ctx; the job runner uses it to give
// async attempts the same tenant scoping as synchronous requests.
func withRequestInfo(ctx context.Context, info *requestInfo) context.Context {
	return context.WithValue(ctx, infoKey, info)
}

// tenantIDFrom resolves the effective tenant of a request or job
// context; contexts outside the plane run as the default tenant.
func tenantIDFrom(ctx context.Context) string {
	if info := requestInfoFrom(ctx); info != nil && info.tenant.ID != "" {
		return info.tenant.ID
	}
	return tenant.DefaultID
}

// checkRowQuota notes n more rows and enforces the tenant's
// MaxRowsPerRequest against the request's cumulative row count, so one
// oversized table and a stream of small segments hit the same wall.
func checkRowQuota(ctx context.Context, n int) error {
	info := requestInfoFrom(ctx)
	if info == nil {
		return nil
	}
	total := info.rows.Add(int64(n))
	if q := info.tenant.Quota.MaxRowsPerRequest; q > 0 && total > int64(q) {
		return quotaExceeded(fmt.Errorf("request exceeds tenant %q's row quota (%d rows per request)", info.tenant.ID, q))
	}
	return nil
}

// newRequestID returns a fresh request ID: "r-" + 12 hex characters.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random request ID bytes: %v", err))
	}
	return "r-" + hex.EncodeToString(b[:])
}

// statusWriter records the response status (and the wire error code
// writeError resolved) for the plane's metrics, log and audit line.
// Unwrap lets http.ResponseController reach Flush/EnableFullDuplex on
// the real writer — the streaming handlers depend on it.
type statusWriter struct {
	http.ResponseWriter
	status int
	code   string // api error code, when writeError produced the response
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.status, sw.wrote = status, true
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.status, sw.wrote = http.StatusOK, true
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// plane wraps a route handler with the service plane. route is the
// registered pattern's path — a bounded label set for the metrics.
func (s *Server) plane(route string, opts planeOpts, inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		info := &requestInfo{id: newRequestID()}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set(api.RequestIDHeader, info.id)
		r = r.WithContext(withRequestInfo(r.Context(), info))

		var refusal error
		if opts.open {
			// Open routes (probes, /metrics) carry no tenant; handlers
			// that need one resolve it themselves.
		} else {
			refusal = s.admit(r, info)
		}
		if refusal != nil {
			s.writeError(sw, refusal)
		} else {
			s.metrics.inflight.Inc()
			inner(sw, r)
			s.metrics.inflight.Dec()
		}

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.requests.With(route, r.Method, strconv.Itoa(status)).Inc()
		s.metrics.duration.With(route).Observe(elapsed.Seconds())
		rows := info.rows.Load()
		if rows > 0 {
			s.metrics.rows.With(route).Add(uint64(rows))
		}

		s.accessLog(r, info, route, status, elapsed)
		if opts.audit {
			s.auditLog(r, info, route, status, sw.code, rows, elapsed)
		}
	}
}

// admit runs the pre-handler gate: per-IP token bucket, bearer
// authentication, then the tenant's own token bucket. On refusal the
// returned error carries the wire code (and Retry-After, for the
// limiters) for writeError.
func (s *Server) admit(r *http.Request, info *requestInfo) error {
	if s.ipLimiter != nil {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			ok, retry := s.ipLimiter.Allow("ip\x00"+host, float64(s.cfg.IPRatePerMinute)/60, s.cfg.IPBurst)
			if !ok {
				s.metrics.rateLimited.With("ip").Inc()
				return rateLimited(retry, fmt.Errorf("too many requests from %s; retry after %s", host, retry))
			}
		}
	}
	rec, err := s.authTenant(r)
	if err != nil {
		return err
	}
	info.tenant = rec
	if rpm := rec.Quota.RequestsPerMinute; rpm > 0 {
		ok, retry := s.tenantLimiter.Allow("t\x00"+rec.ID, float64(rpm)/60, rec.Quota.EffectiveBurst())
		if !ok {
			s.metrics.rateLimited.With("tenant").Inc()
			return rateLimited(retry, fmt.Errorf("tenant %q is over its request rate (%d/min); retry after %s", rec.ID, rpm, retry))
		}
	}
	return nil
}

// authTenant resolves the request's tenant. Open mode (no tenant
// store) resolves everything to the built-in default admin tenant;
// otherwise the Authorization bearer token must match a stored,
// enabled tenant.
func (s *Server) authTenant(r *http.Request) (tenant.Record, error) {
	if s.cfg.Tenants == nil {
		return openTenant(), nil
	}
	token, ok := bearerToken(r)
	if !ok {
		s.metrics.authFailures.With("missing").Inc()
		return tenant.Record{}, unauthorized(fmt.Errorf("missing bearer token in the Authorization header"))
	}
	rec, ok := s.cfg.Tenants.Authenticate(token)
	if !ok {
		s.metrics.authFailures.With("unknown").Inc()
		return tenant.Record{}, unauthorized(fmt.Errorf("unknown bearer token"))
	}
	if rec.Disabled {
		s.metrics.authFailures.With("disabled").Inc()
		return tenant.Record{}, forbidden(fmt.Errorf("tenant %q is disabled", rec.ID))
	}
	return rec, nil
}

// openTenant is the implicit tenant of open mode: default-ID, admin,
// no quotas.
func openTenant() tenant.Record {
	return tenant.Record{ID: tenant.DefaultID, Role: tenant.RoleAdmin}
}

// bearerToken extracts the Authorization bearer token (scheme
// case-insensitive, per RFC 6750).
func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return "", false
	}
	return auth[len(prefix):], true
}

// accessLog emits the structured access-log line.
func (s *Server) accessLog(r *http.Request, info *requestInfo, route string, status int, elapsed time.Duration) {
	if s.log == nil {
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("request_id", info.id),
		slog.String("tenant", info.tenant.ID),
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Int64("duration_ms", elapsed.Milliseconds()),
		slog.String("remote", r.RemoteAddr),
	)
}

// auditLog appends the request's audit record: who (tenant), what
// (route/method/job), the outcome (status/code/rows) — never the
// token, the secret, or any table data.
func (s *Server) auditLog(r *http.Request, info *requestInfo, route string, status int, code string, rows int64, elapsed time.Duration) {
	err := s.cfg.Audit.Append(audit.Record{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		RequestID:  info.id,
		Tenant:     info.tenant.ID,
		Route:      route,
		Method:     r.Method,
		Status:     status,
		Code:       code,
		Rows:       int(rows),
		DurationMS: elapsed.Milliseconds(),
		Remote:     r.RemoteAddr,
		Job:        info.jobID,
	})
	if err != nil && s.log != nil {
		// An unwritable audit log must not refuse service, but it must
		// not fail silently either.
		s.log.LogAttrs(context.Background(), slog.LevelError, "audit append failed",
			slog.String("request_id", info.id), slog.String("error", err.Error()))
	}
}

// serverMetrics is the service plane's metric set.
type serverMetrics struct {
	reg          *metrics.Registry
	requests     *metrics.CounterVec   // route, method, code
	duration     *metrics.HistogramVec // route
	inflight     *metrics.Gauge
	rows         *metrics.CounterVec // route
	rateLimited  *metrics.CounterVec // scope: ip | tenant
	authFailures *metrics.CounterVec // reason: missing | unknown | disabled
}

// newServerMetrics builds the registry. jobStates is sampled at scrape
// time for the per-state job gauge.
func newServerMetrics(jobStates func() map[string]int64) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:          reg,
		requests:     metrics.NewCounterVec(reg, "medshield_http_requests_total", "HTTP requests served.", "route", "method", "code"),
		duration:     metrics.NewHistogramVec(reg, "medshield_http_request_duration_seconds", "HTTP request latency in seconds.", metrics.DurationBuckets, "route"),
		inflight:     metrics.NewGauge(reg, "medshield_http_inflight_requests", "Requests currently inside a handler."),
		rows:         metrics.NewCounterVec(reg, "medshield_rows_processed_total", "Table rows consumed by pipeline requests.", "route"),
		rateLimited:  metrics.NewCounterVec(reg, "medshield_rate_limited_total", "Requests refused by a token bucket.", "scope"),
		authFailures: metrics.NewCounterVec(reg, "medshield_auth_failures_total", "Failed bearer authentications.", "reason"),
	}
	metrics.NewGaugeFunc(reg, "medshield_jobs", "Jobs by lifecycle state.", "state", jobStates)
	return m
}

// handleMetrics serves the Prometheus text exposition. Scrapes from
// loopback are always allowed (the sidecar/agent case); anything else
// needs an admin tenant's bearer token.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.metricsAllowed(r) {
		s.writeError(w, forbidden(fmt.Errorf("metrics are served to loopback scrapers or admin tenants only")))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.Write(w)
}

func (s *Server) metricsAllowed(r *http.Request) bool {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
			return true
		}
	}
	if s.cfg.Tenants == nil {
		// Open mode has no tokens to check; off-host scrapes stay
		// refused, like the pprof listener.
		return false
	}
	token, ok := bearerToken(r)
	if !ok {
		return false
	}
	rec, ok := s.cfg.Tenants.Authenticate(token)
	return ok && !rec.Disabled && rec.Role == tenant.RoleAdmin
}

// Authentication failures (answered with a WWW-Authenticate
// challenge), authenticated-but-refused requests (disabled tenant,
// insufficient role), token-bucket refusals with their Retry-After
// promise, and per-tenant quota refusals (rows per request, active
// jobs), which carry no Retry-After: the remedy is a smaller request or
// finished jobs, not waiting.
func unauthorized(err error) error {
	return &tagged{api.CodeUnauthorized, http.StatusUnauthorized, 0, err}
}
func forbidden(err error) error { return &tagged{api.CodeForbidden, http.StatusForbidden, 0, err} }
func rateLimited(retryAfter time.Duration, err error) error {
	return &tagged{api.CodeRateLimited, http.StatusTooManyRequests, retryAfter, err}
}
func quotaExceeded(err error) error {
	return &tagged{api.CodeQuotaExceeded, http.StatusTooManyRequests, 0, err}
}
