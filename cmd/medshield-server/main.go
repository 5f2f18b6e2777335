// Command medshield-server exposes the protection pipeline as an HTTP
// service speaking the internal/api v1 wire contract:
//
//	POST /v1/protect      — bin + watermark a table (CSV-or-rows payload)
//	POST /v1/plan         — binning search only (dry run)
//	POST /v1/apply        — execute a frozen plan on a table (no search)
//	POST /v1/append       — protect a delta batch under a frozen plan
//	POST /v1/detect       — recover the mark from a suspected copy
//	POST /v1/dispute      — arbitrate ownership claims (§5.4)
//	POST /v1/fingerprint  — protect one table for N recipients, register them
//	POST /v1/traceback    — rank registered recipients against a leaked copy
//	GET/POST/DELETE /v1/recipients[/{id}] — recipient registry CRUD-lite
//	GET  /healthz, /v1/healthz — liveness + capacity
//	GET  /readyz          — readiness (503 once draining)
//	POST /v1/jobs/{kind}  — submit protect/plan/apply/detect/fingerprint/traceback async
//	GET  /v1/jobs[/{id}]  — list / poll jobs; DELETE cancels
//	GET  /v1/jobs/{id}/events — SSE progress stream
//	GET  /metrics         — Prometheus text exposition (loopback or admin)
//
// Every request runs under a per-request deadline (-request-timeout) and
// a bounded in-flight semaphore (-max-inflight, sized off -workers by
// default); connection hygiene is bounded by -read-timeout and
// -idle-timeout. The probe and job routes bypass the semaphore: job
// submission answers 202 in milliseconds while the -job-workers pool
// grinds through the queue, with retries (-job-max-attempts), SSE
// progress and HMAC-signed completion webhooks. Finished jobs are
// garbage-collected -job-ttl after completion (0 keeps them forever).
//
// SIGINT/SIGTERM shut down in stages: readiness flips (load balancers
// stop routing) and job submissions are refused, in-flight HTTP
// requests drain, then running jobs are cancelled back to the queued
// state and the job store is flushed — with -jobs they resume on the
// next boot. The recipient registry persists to -registry and the job
// queue to -jobs (both JSON, atomic writes), or live in memory when the
// flags are empty. NOTE: job requests embed owner secrets, so the -jobs
// file (mode 0600) holds secrets at rest; omit the flag to keep them
// memory-only.
//
// /v1/plan, /v1/apply, /v1/append, /v1/detect and /v1/traceback
// additionally speak a streaming text/csv mode (metadata in headers,
// statistics — and on the read side the verdict document — in trailers)
// that processes tables segment-at-a-time far beyond -max-body-bytes
// under bounded memory — see internal/api's stream contract.
// /v1/fingerprint caps one batch at -max-fingerprint-recipients and
// refuses larger fleets with a 400 too_many_recipients.
//
// With -tenants the server runs multi-tenant: every pipeline and job
// route demands a bearer token (Authorization: Bearer mst_...), the
// recipient registry and job queue are namespaced per tenant, requests
// are rate-limited per tenant (and pre-auth per client IP with
// -ip-rate) and optionally audited to an append-only JSONL trail
// (-audit). GET /metrics serves Prometheus text — loopback scrapes are
// always allowed; off-host scrapes need an admin tenant's token.
// Tokens are provisioned with `medprotect admin tenant create`.
// Without -tenants the server runs open, as before.
//
// -pprof serves net/http/pprof on a second, loopback-only listener so
// profiles never share the public address:
//
//	medshield-server -addr :8080 -k 20 -workers 0 -request-timeout 60s -registry recipients.json -pprof 127.0.0.1:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "medshield-server: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		k              = flag.Int("k", 20, "default k-anonymity parameter (per-request options may override)")
		autoEps        = flag.Bool("auto-epsilon", true, "default: compute the conservative §6 slack automatically")
		workers        = flag.Int("workers", 0, "pipeline worker count per request (0 = all cores, 1 = sequential)")
		requestTimeout = flag.Duration("request-timeout", 60*time.Second, "per-request deadline")
		readTimeout    = flag.Duration("read-timeout", 5*time.Minute, "max duration for reading an entire request, body included (0 = unlimited)")
		idleTimeout    = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time before a connection is closed (0 = unlimited)")
		maxInflight    = flag.Int("max-inflight", 0, "max concurrently served pipeline requests (0 = sized off workers)")
		maxBody        = flag.Int64("max-body-bytes", 64<<20, "request body size cap in bytes")
		maxRecipients  = flag.Int("max-fingerprint-recipients", 128, "max recipients per /v1/fingerprint request")
		registryPath   = flag.String("registry", "", "recipient registry JSON path for fingerprint/traceback (empty = in-memory, lost on exit)")
		jobsPath       = flag.String("jobs", "", "durable job store JSON path (empty = in-memory; queued/running jobs then die with the process)")
		jobWorkers     = flag.Int("job-workers", 0, "async job pool size (0 = 2)")
		jobAttempts    = flag.Int("job-max-attempts", 0, "max run attempts per job before the dead-letter state (0 = 3)")
		jobTimeout     = flag.Duration("job-attempt-timeout", 0, "per-attempt deadline for async jobs (0 = 15m)")
		jobTTL         = flag.Duration("job-ttl", 0, "retain terminal jobs this long before garbage collection (0 = keep forever)")
		pprofAddr      = flag.String("pprof", "", "serve net/http/pprof on this loopback address, e.g. 127.0.0.1:6060 (empty = disabled)")
		tenantsPath    = flag.String("tenants", "", "tenant store JSON path; setting it turns on bearer-token auth for every pipeline route (empty = open single-tenant mode)")
		auditPath      = flag.String("audit", "", "append-only JSONL audit trail for mutating calls (empty = disabled)")
		ipRate         = flag.Int("ip-rate", 0, "pre-auth per-client-IP request budget per minute, guards token probing (0 = disabled)")
		ipBurst        = flag.Int("ip-burst", 0, "per-IP burst size (0 = ip-rate/6, min 1)")
		quiet          = flag.Bool("quiet", false, "disable the per-request and job lifecycle records")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "medshield-server ", log.LstdFlags)
	var records *slog.Logger
	if !*quiet {
		records = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	reg, err := registry.Open(*registryPath)
	if err != nil {
		return err
	}
	jobStore, err := jobs.Open(*jobsPath)
	if err != nil {
		return err
	}
	var tenants *tenant.Store
	if *tenantsPath != "" {
		if tenants, err = tenant.Open(*tenantsPath); err != nil {
			return err
		}
		if tenants.Len() == 0 {
			logger.Printf("WARNING: -tenants %s holds no tenants; every request will be refused until one is created (medprotect admin tenant create)", *tenantsPath)
		}
	}
	var auditLog *audit.Logger
	if *auditPath != "" {
		if auditLog, err = audit.Open(*auditPath); err != nil {
			return err
		}
		defer auditLog.Close()
	}
	svc, err := server.New(server.Config{
		Defaults:                 core.Config{K: *k, AutoEpsilon: *autoEps, Workers: *workers},
		RequestTimeout:           *requestTimeout,
		MaxInflight:              *maxInflight,
		MaxBodyBytes:             *maxBody,
		MaxFingerprintRecipients: *maxRecipients,
		Registry:                 reg,
		Jobs: jobs.Config{
			Store:          jobStore,
			Workers:        *jobWorkers,
			MaxAttempts:    *jobAttempts,
			AttemptTimeout: *jobTimeout,
			TTL:            *jobTTL,
		},
		Logger:          records,
		Tenants:         tenants,
		Audit:           auditLog,
		IPRatePerMinute: *ipRate,
		IPBurst:         *ipBurst,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// The per-request budget is the service's request timeout (which
		// also covers semaphore wait); the connection-level timeouts
		// below bound what that budget cannot see. Without IdleTimeout a
		// keep-alive client pins its connection (and a file descriptor)
		// forever; ReadTimeout bounds slow-loris body uploads that would
		// otherwise hold a handler goroutine indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	if *pprofAddr != "" {
		ln, err := pprofListener(*pprofAddr)
		if err != nil {
			return err
		}
		// The profile endpoints run on their own server + mux: they must
		// never ride the public address (heap dumps and CPU profiles are
		// operator-only), and using the default http.DefaultServeMux would
		// invite exactly that by accident.
		pprofSrv := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		defer pprofSrv.Close()
		go func() {
			logger.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
			if err := pprofSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errCh <- fmt.Errorf("pprof: %w", err)
			}
		}()
	}
	go func() {
		logger.Printf("listening on %s (k=%d workers=%d timeout=%s inflight=%d)",
			*addr, *k, *workers, *requestTimeout, *maxInflight)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown, in stages: (1) flip readiness and refuse new
	// job submissions so load balancers stop routing here; (2) stop
	// accepting connections and drain in-flight HTTP requests up to one
	// request-timeout; (3) cancel running jobs with the drain cause —
	// they fail cleanly back to the queued state, no attempt consumed —
	// and flush the job store so a durable queue resumes on next boot.
	logger.Printf("shutting down: draining")
	svc.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *requestTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := svc.Close(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained")
	return nil
}

// pprofListener binds the -pprof address, refusing anything that is not
// loopback: the profile endpoints expose heap contents and must stay
// operator-local.
func pprofListener(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("-pprof %q: refusing a non-loopback address (use 127.0.0.1:PORT or [::1]:PORT)", addr)
	}
	return net.Listen("tcp", addr)
}

// pprofMux registers the net/http/pprof handlers on a private mux —
// the same routes the package puts on http.DefaultServeMux at init.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
