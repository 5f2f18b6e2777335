package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/url"
	"sync"
	"time"

	"repro/internal/sse"
	"repro/internal/tenant"
)

// Clock abstracts time for the manager so retry/backoff schedules are
// testable without real sleeps.
type Clock interface {
	Now() time.Time
	// After fires once after d (like time.After).
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Backoff is the retry delay schedule: Base doubled per failed attempt,
// capped at Max, with up to ±half-delay jitter unless disabled.
type Backoff struct {
	Base time.Duration // delay before the second attempt (default 2s)
	Max  time.Duration // delay ceiling (default 1m)
}

// delay returns the pre-jitter backoff after the given number of
// completed attempts (>= 1): Base << (attempts-1), capped at Max.
func (b Backoff) delay(attempts int) time.Duration {
	d := b.Base
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= b.Max {
			return b.Max
		}
	}
	return min(d, b.Max)
}

// Runner executes one job attempt. Implementations decode Job.Request
// per Job.Kind, run the pipeline under ctx (honoring cancellation), and
// return the response document. Errors wrapped with Transient are
// retried; anything else fails the job permanently.
type Runner interface {
	// Run executes one attempt, reporting coarse progress through
	// progress (never nil; safe for concurrent use).
	Run(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error)
	// Secret returns the job's webhook-signing secret — by convention
	// the master secret embedded in the request payload. Submissions
	// with a webhook are refused when it is empty (unsigned completion
	// callbacks would be forgeable).
	Secret(job Job) string
}

// Config parameterizes the manager.
type Config struct {
	// Store is the durable job store (required).
	Store Store
	// Runner executes attempts (required).
	Runner Runner
	// Kinds is the set of accepted job kinds (required, non-empty).
	Kinds []string
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// MaxAttempts bounds run attempts per job before the dead-letter
	// state (default 3).
	MaxAttempts int
	// AttemptTimeout is the per-attempt context deadline (default 15m;
	// <0 disables).
	AttemptTimeout time.Duration
	// Backoff is the retry schedule (defaults: Base 2s, Max 1m).
	Backoff Backoff
	// DisableJitter makes retry delays exact (tests).
	DisableJitter bool
	// Clock abstracts time (default real time).
	Clock Clock
	// Hub receives per-job events on topic "jobs/<id>" (nil = no
	// events).
	Hub *sse.Hub
	// Webhook delivery tuning: attempts (default 5), retry backoff
	// (defaults: Base 1s, Max 30s) and the POST executor. Deliver is
	// injectable for tests; nil selects an HTTP client with
	// WebhookTimeout (default 10s) per request.
	WebhookMaxAttempts int
	WebhookBackoff     Backoff
	WebhookTimeout     time.Duration
	Deliver            DeliverFunc
	// TTL retains terminal jobs (succeeded, failed, canceled, dead) for
	// this long after they finish; the sweeper then deletes the record
	// and releases its idempotency key, so the store cannot grow without
	// bound. 0 disables garbage collection (records are kept forever).
	TTL time.Duration
	// GCInterval is the sweep period (default TTL/4, capped at 1m
	// minimum).
	GCInterval time.Duration
	// ClassifyError maps a run error to the wire error code stored on
	// the job (nil = no codes).
	ClassifyError func(error) string
	// Logger receives one line per lifecycle event; nil disables.
	Logger *log.Logger
}

// Manager owns the queue: it recovers persisted jobs on Start, runs
// them on a bounded worker pool, and serves submit/get/list/cancel.
type Manager struct {
	cfg   Config
	store Store

	mu       sync.Mutex
	cond     *sync.Cond // signals queue pushes and stop
	queue    []string   // job IDs ready to run, FIFO
	cancels  map[string]context.CancelCauseFunc
	progress map[string]Progress // latest progress of running jobs
	idem     map[string]string   // kind + "\x00" + key -> job ID
	draining bool
	stopped  bool

	stop    chan struct{} // closed by Close: timers and deliveries exit
	workers sync.WaitGroup
	side    sync.WaitGroup // retry timers + webhook deliveries

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New validates the configuration, recovers the store (running jobs —
// interrupted by a crash — go back to queued; queued jobs re-enter the
// queue, oldest first) and starts the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("jobs: Config.Store is required")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("jobs: Config.Runner is required")
	}
	if len(cfg.Kinds) == 0 {
		return nil, fmt.Errorf("jobs: Config.Kinds is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 15 * time.Minute
	}
	if cfg.Backoff.Base <= 0 {
		cfg.Backoff.Base = 2 * time.Second
	}
	if cfg.Backoff.Max <= 0 {
		cfg.Backoff.Max = time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.WebhookMaxAttempts <= 0 {
		cfg.WebhookMaxAttempts = 5
	}
	if cfg.WebhookBackoff.Base <= 0 {
		cfg.WebhookBackoff.Base = time.Second
	}
	if cfg.WebhookBackoff.Max <= 0 {
		cfg.WebhookBackoff.Max = 30 * time.Second
	}
	if cfg.WebhookTimeout <= 0 {
		cfg.WebhookTimeout = 10 * time.Second
	}
	if cfg.Deliver == nil {
		cfg.Deliver = httpDeliver(cfg.WebhookTimeout)
	}
	m := &Manager{
		cfg:      cfg,
		store:    cfg.Store,
		cancels:  make(map[string]context.CancelCauseFunc),
		progress: make(map[string]Progress),
		idem:     make(map[string]string),
		stop:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	m.cond = sync.NewCond(&m.mu)
	if err := m.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	if cfg.TTL > 0 {
		if m.cfg.GCInterval <= 0 {
			m.cfg.GCInterval = max(cfg.TTL/4, time.Minute)
		}
		m.side.Add(1)
		go m.sweeper()
	}
	return m, nil
}

// sweeper periodically garbage-collects terminal jobs older than TTL.
func (m *Manager) sweeper() {
	defer m.side.Done()
	for {
		select {
		case <-m.cfg.Clock.After(m.cfg.GCInterval):
			m.sweep()
		case <-m.stop:
			return
		}
	}
}

// sweep deletes every terminal job that finished at least TTL ago and
// releases its idempotency key, so a later submission with the same key
// starts a fresh job instead of resurrecting the expired record.
func (m *Manager) sweep() {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.cfg.Clock.Now().UTC().Add(-m.cfg.TTL)
	for _, j := range m.store.List() {
		if !j.State.Terminal() || j.FinishedAt.IsZero() || j.FinishedAt.After(cutoff) {
			continue
		}
		if err := m.store.Delete(j.ID); err != nil {
			m.logf("job %s: expiring after TTL: %v", j.ID, err)
			continue
		}
		if j.IdempotencyKey != "" && m.idem[idemIndex(j.TenantID, j.Kind, j.IdempotencyKey)] == j.ID {
			delete(m.idem, idemIndex(j.TenantID, j.Kind, j.IdempotencyKey))
		}
		delete(m.progress, j.ID)
		m.logf("job %s (%s) expired %s after finishing", j.ID, j.Kind, m.cfg.TTL)
	}
}

// recover rebuilds in-memory state from the store: the idempotency
// index, and the queue — jobs persisted as running were interrupted
// mid-attempt (crash or kill -9) and are re-enqueued as queued; their
// started attempt does not count against MaxAttempts because it never
// reported an outcome.
func (m *Manager) recover() error {
	for _, j := range m.store.List() {
		if j.IdempotencyKey != "" {
			m.idem[idemIndex(j.TenantID, j.Kind, j.IdempotencyKey)] = j.ID
		}
		switch j.State {
		case StateRunning:
			j.State = StateQueued
			if j.Attempts > 0 {
				j.Attempts--
			}
			j.StartedAt = time.Time{}
			j.Progress = Progress{}
			if err := m.store.Put(j); err != nil {
				return fmt.Errorf("jobs: re-enqueueing interrupted job %s: %w", j.ID, err)
			}
			m.queue = append(m.queue, j.ID)
			m.logf("job %s (%s) recovered: re-enqueued after interrupted attempt", j.ID, j.Kind)
		case StateQueued:
			m.queue = append(m.queue, j.ID)
		}
	}
	return nil
}

// SubmitOptions carries the per-submission extras.
type SubmitOptions struct {
	// TenantID is the submitting tenant ("" = tenant.DefaultID). It is
	// recorded on the job and scopes the idempotency key.
	TenantID string
	// IdempotencyKey dedups submissions per (tenant, kind) ("" = no
	// dedup).
	IdempotencyKey string
	// Webhook is the completion callback URL (http/https; "" = none).
	Webhook string
	// MaxAttempts overrides the manager default for this job (0 =
	// default).
	MaxAttempts int
}

// Submit enqueues a job. When opts.IdempotencyKey matches an earlier
// submission of the same kind, the existing job is returned with
// existing=true and nothing is enqueued — duplicate submits are safe.
func (m *Manager) Submit(kind string, req json.RawMessage, opts SubmitOptions) (job Job, existing bool, err error) {
	if !m.kindAllowed(kind) {
		return Job{}, false, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	if opts.Webhook != "" {
		u, err := url.Parse(opts.Webhook)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return Job{}, false, fmt.Errorf("jobs: webhook %q is not an absolute http(s) URL", opts.Webhook)
		}
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = m.cfg.MaxAttempts
	}

	tenantID := tenant.Normalize(opts.TenantID)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.stopped {
		return Job{}, false, ErrDraining
	}
	if opts.IdempotencyKey != "" {
		if id, ok := m.idem[idemIndex(tenantID, kind, opts.IdempotencyKey)]; ok {
			if j, ok := m.store.Get(id); ok {
				return m.overlayProgressLocked(j), true, nil
			}
		}
	}
	j := Job{
		ID:             NewID(),
		Kind:           kind,
		TenantID:       tenantID,
		State:          StateQueued,
		IdempotencyKey: opts.IdempotencyKey,
		Request:        req,
		MaxAttempts:    maxAttempts,
		CreatedAt:      m.cfg.Clock.Now().UTC(),
		Webhook:        opts.Webhook,
	}
	if opts.Webhook != "" && m.cfg.Runner.Secret(j) == "" {
		return Job{}, false, fmt.Errorf("jobs: webhook requires a signing secret in the request payload")
	}
	if err := m.store.Put(j); err != nil {
		return Job{}, false, err
	}
	if j.IdempotencyKey != "" {
		m.idem[idemIndex(j.TenantID, kind, j.IdempotencyKey)] = j.ID
	}
	m.queue = append(m.queue, j.ID)
	m.cond.Signal()
	m.publish(j)
	m.logf("job %s (%s) queued", j.ID, j.Kind)
	return j, false, nil
}

// Get returns the job, overlaying the live progress of a running
// attempt (progress is not persisted per tick, only per transition).
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return Job{}, false
	}
	return m.overlayProgressLocked(j), true
}

// Filter selects jobs for List ("" matches everything).
type Filter struct {
	Kind  string
	State State
	// Tenant restricts the listing to one tenant's jobs ("" = all —
	// the operator view; tenant-facing handlers always set this).
	Tenant string
}

// List returns matching jobs, newest first.
func (m *Manager) List(f Filter) []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := m.store.List()
	out := make([]Job, 0, len(all))
	for _, j := range all {
		if f.Tenant != "" && tenant.Normalize(j.TenantID) != f.Tenant {
			continue
		}
		if f.Kind != "" && j.Kind != f.Kind {
			continue
		}
		if f.State != "" && j.State != f.State {
			continue
		}
		out = append(out, m.overlayProgressLocked(j))
	}
	// Store order is oldest-first; the listing serves newest-first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Cancel cancels a job: a queued job transitions to canceled
// immediately; a running job's context is cancelled and the transition
// happens when the attempt unwinds (the returned record still says
// running). Cancelling a terminal job is a no-op returning its current
// state. Unknown IDs return ErrNotFound.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	switch {
	case j.State.Terminal():
		return j, nil
	case j.State == StateRunning:
		if cancel, ok := m.cancels[id]; ok {
			cancel(ErrCanceled)
		}
		return m.overlayProgressLocked(j), nil
	default: // queued (possibly waiting out a retry backoff)
		j.State = StateCanceled
		j.FinishedAt = m.cfg.Clock.Now().UTC()
		j.Error = ErrCanceled.Error()
		releaseRequest(&j)
		if err := m.store.Put(j); err != nil {
			return Job{}, err
		}
		m.publish(j)
		m.logf("job %s (%s) canceled while queued", j.ID, j.Kind)
		m.maybeDeliverLocked(j)
		return j, nil
	}
}

// Draining reports whether the manager has stopped accepting
// submissions (readiness probes key off this).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining || m.stopped
}

// Drain stops intake: subsequent Submits fail with ErrDraining. Running
// jobs keep running; call Close to stop them.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Close drains and shuts down: intake stops, running attempts are
// cancelled with the drain cause so they fail cleanly back to queued
// (no attempt consumed — they resume on the next boot), retry timers
// and webhook deliveries are released, and every worker is joined. The
// store has been flushed when Close returns (each transition persisted
// synchronously). ctx bounds the wait.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.stopped = true
	close(m.stop)
	for _, cancel := range m.cancels {
		cancel(errDrain)
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		m.side.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain incomplete: %w", ctx.Err())
	}
}

// worker is one pool goroutine: pop, run, repeat.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		id, ok := m.next()
		if !ok {
			return
		}
		m.runJob(id)
	}
}

// next blocks until a job ID is queued or the manager stops.
func (m *Manager) next() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.stopped {
		m.cond.Wait()
	}
	if m.stopped {
		return "", false
	}
	id := m.queue[0]
	m.queue = m.queue[1:]
	return id, true
}

// runJob executes one attempt of job id and applies the outcome.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	j, ok := m.store.Get(id)
	if !ok || j.State != StateQueued {
		// Cancelled (or otherwise transitioned) while waiting in the
		// queue or a retry timer; nothing to run.
		m.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = m.cfg.Clock.Now().UTC()
	j.NotBefore = time.Time{}
	j.Progress = Progress{}
	if err := m.store.Put(j); err != nil {
		// The store refusing the transition means persistence is broken;
		// leave the job queued on disk and surface the error.
		m.mu.Unlock()
		m.logf("job %s: persisting running state: %v", id, err)
		return
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	if m.cfg.AttemptTimeout > 0 {
		tctx, cancelTimeout := context.WithTimeout(ctx, m.cfg.AttemptTimeout)
		defer cancelTimeout()
		ctx = tctx
	}
	m.cancels[id] = cancel
	delete(m.progress, id)
	m.publish(j)
	m.mu.Unlock()
	m.logf("job %s (%s) running (attempt %d/%d)", j.ID, j.Kind, j.Attempts, j.MaxAttempts)

	progressFn := func(p Progress) {
		m.mu.Lock()
		m.progress[id] = p
		m.mu.Unlock()
		m.publishProgress(id, p)
	}
	result, runErr := m.cfg.Runner.Run(ctx, j, progressFn)
	cause := context.Cause(ctx)
	cancel(nil)

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cancels, id)
	lastProgress := m.progress[id]
	delete(m.progress, id)
	j, ok = m.store.Get(id)
	if !ok {
		return
	}
	now := m.cfg.Clock.Now().UTC()
	j.Progress = lastProgress

	switch {
	case runErr == nil:
		j.State = StateSucceeded
		j.Result = result
		j.Error, j.ErrorCode = "", ""
		j.FinishedAt = now
	case errors.Is(cause, errDrain):
		// Graceful drain: the attempt was interrupted by shutdown, not
		// by its own failure — back to queued without consuming the
		// attempt; the next boot re-runs it.
		j.State = StateQueued
		j.Attempts--
		j.StartedAt = time.Time{}
		j.Progress = Progress{}
		m.persistAndPublishLocked(j)
		m.logf("job %s (%s) re-queued by drain", j.ID, j.Kind)
		return
	case errors.Is(cause, ErrCanceled):
		j.State = StateCanceled
		j.Error = ErrCanceled.Error()
		j.FinishedAt = now
	case IsTransient(runErr) || errors.Is(runErr, context.DeadlineExceeded):
		// Retryable: attempt-deadline hits count as transient (the
		// machine may simply have been saturated).
		j.Error = runErr.Error()
		j.ErrorCode = m.classify(runErr)
		if j.Attempts >= j.MaxAttempts {
			j.State = StateDead
			j.FinishedAt = now
			break
		}
		delay := m.jittered(m.cfg.Backoff.delay(j.Attempts))
		j.State = StateQueued
		j.NotBefore = now.Add(delay)
		j.StartedAt = time.Time{}
		j.Progress = Progress{}
		m.persistAndPublishLocked(j)
		m.logf("job %s (%s) attempt %d failed (%v); retry in %s", j.ID, j.Kind, j.Attempts, runErr, delay)
		m.side.Add(1)
		go m.requeueAfter(id, delay)
		return
	default:
		j.State = StateFailed
		j.Error = runErr.Error()
		j.ErrorCode = m.classify(runErr)
		j.FinishedAt = now
	}
	releaseRequest(&j)
	m.persistAndPublishLocked(j)
	m.logf("job %s (%s) %s", j.ID, j.Kind, j.State)
	m.maybeDeliverLocked(j)
}

// releaseRequest drops a terminal job's request unless its webhook
// delivery still needs the signing secret in it: a finished job no
// longer holds the submitted table or the owner's secret in memory or
// in the store.
func releaseRequest(j *Job) {
	if j.Webhook == "" {
		j.Request = nil
	}
}

// requeueAfter pushes id back on the queue after the backoff delay (or
// drops the timer at shutdown — the job is already persisted queued, so
// the next boot re-enqueues it).
func (m *Manager) requeueAfter(id string, d time.Duration) {
	defer m.side.Done()
	select {
	case <-m.cfg.Clock.After(d):
	case <-m.stop:
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	m.queue = append(m.queue, id)
	m.cond.Signal()
}

// persistAndPublishLocked stores j and emits its state event. Callers
// hold m.mu.
func (m *Manager) persistAndPublishLocked(j Job) {
	if err := m.store.Put(j); err != nil {
		m.logf("job %s: persisting %s state: %v", j.ID, j.State, err)
	}
	m.publish(j)
}

// maybeDeliverLocked kicks off webhook delivery for a terminal job.
// Callers hold m.mu.
func (m *Manager) maybeDeliverLocked(j Job) {
	if j.Webhook == "" || !j.State.Terminal() {
		return
	}
	m.side.Add(1)
	go m.deliverWebhook(j.ID)
}

// overlayProgressLocked merges the live progress of a running job into
// its stored snapshot. Callers hold m.mu.
func (m *Manager) overlayProgressLocked(j Job) Job {
	if p, ok := m.progress[j.ID]; ok && j.State == StateRunning {
		j.Progress = p
	}
	return j
}

// jittered spreads d to [d/2, d) so synchronized failures do not retry
// in lockstep.
func (m *Manager) jittered(d time.Duration) time.Duration {
	if m.cfg.DisableJitter || d <= 0 {
		return d
	}
	m.rngMu.Lock()
	f := m.rng.Float64()
	m.rngMu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

func (m *Manager) classify(err error) string {
	if m.cfg.ClassifyError == nil || err == nil {
		return ""
	}
	return m.cfg.ClassifyError(err)
}

func (m *Manager) kindAllowed(kind string) bool {
	for _, k := range m.cfg.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// idemIndex keys the idempotency map by (tenant, kind, key) so two
// tenants reusing the same Idempotency-Key never see each other's jobs.
func idemIndex(tenantID, kind, key string) string {
	return tenant.Normalize(tenantID) + "\x00" + kind + "\x00" + key
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}
