package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"slices"
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

// schedule is a fixed retry delay sequence: base doubled per failed
// attempt, capped at max.
type schedule struct {
	name      string
	base, max time.Duration
}

// The job layer's two schedules.
var (
	// retrySchedule spaces the attempts of a job whose attempt ran past
	// its deadline: 2s, doubling to at most 1m.
	retrySchedule = schedule{"retry", 2 * time.Second, time.Minute}
	// webhookSchedule spaces the webhookAttempts deliveries of a
	// completion webhook: 1s, 2s, 4s and 8s, the cap the fourth wait
	// reaches.
	webhookSchedule = schedule{"webhook", time.Second, 8 * time.Second}
)

// delay returns the wait after the given number of completed attempts
// (>= 1) of job id: base << (attempts-1), capped at max, then spread
// into [d/2, d) by a hash of (id, schedule, attempts), so failures that
// happen together do not retry in lockstep, and a job's schedule is
// the same on every run.
func (s schedule) delay(id string, attempts int) time.Duration {
	d := s.base
	for i := 1; i < attempts && d < s.max; i++ {
		d *= 2
	}
	d = min(d, s.max)
	h := sha256.Sum256(fmt.Appendf(nil, "%s\x00%s\x00%d", id, s.name, attempts))
	return d/2 + time.Duration(binary.BigEndian.Uint64(h[:])%uint64(d-d/2))
}

// Runner executes one job attempt. Implementations decode Job.Request
// per Job.Kind, run the pipeline under ctx (honoring cancellation), and
// return the response document. An attempt that ends with its deadline
// (context.DeadlineExceeded) is retried; any other error fails the job
// permanently.
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
	Store *Store
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
	// <0 disables). An attempt that runs past it is retried after 2s,
	// doubling to at most 1m (retrySchedule).
	AttemptTimeout time.Duration
	// Clock abstracts time (default real time).
	Clock Clock
	// Hub receives per-job events on topic "jobs/<id>" (nil = no
	// events).
	Hub *sse.Hub
	// Deliver executes one webhook POST (nil = an HTTP POST with a 10s
	// timeout). A completion webhook gets up to 5 deliveries, spaced
	// 1s, 2s, 4s and 8s before jitter (webhookSchedule).
	Deliver DeliverFunc
	// TTL retains terminal jobs (succeeded, failed, canceled, dead) for
	// this long after they finish; the sweeper, which runs every
	// max(TTL/4, 1m), then deletes the record and releases its
	// idempotency key, so the store cannot grow without bound. 0
	// disables garbage collection (records are kept forever).
	TTL time.Duration
	// ClassifyError maps a run error to the wire error code stored on
	// the job (nil = no codes).
	ClassifyError func(error) string
	// Logger receives one record per lifecycle event, with the job,
	// kind and state attributes; nil disables them.
	Logger *slog.Logger
}

// Manager owns the queue: it recovers persisted jobs on Start, runs
// them on a bounded worker pool, and serves submit/get/list/cancel.
type Manager struct {
	cfg   Config
	store *Store

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
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Deliver == nil {
		cfg.Deliver = httpDeliver
	}
	m := &Manager{
		cfg:      cfg,
		store:    cfg.Store,
		cancels:  make(map[string]context.CancelCauseFunc),
		progress: make(map[string]Progress),
		idem:     make(map[string]string),
		stop:     make(chan struct{}),
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
		m.side.Add(1)
		go m.sweeper()
	}
	return m, nil
}

// sweeper garbage-collects terminal jobs older than TTL, every
// max(TTL/4, 1m).
func (m *Manager) sweeper() {
	defer m.side.Done()
	period := max(m.cfg.TTL/4, time.Minute)
	for {
		select {
		case <-m.cfg.Clock.After(period):
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
			m.logJob(slog.LevelError, "job expiry failed", j, slog.Any("err", err))
			continue
		}
		if j.IdempotencyKey != "" && m.idem[idemIndex(j.TenantID, j.Kind, j.IdempotencyKey)] == j.ID {
			delete(m.idem, idemIndex(j.TenantID, j.Kind, j.IdempotencyKey))
		}
		delete(m.progress, j.ID)
		m.logJob(slog.LevelInfo, "job expired", j, slog.Duration("ttl", m.cfg.TTL))
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
			m.logJob(slog.LevelInfo, "job re-enqueued after interrupted attempt", j)
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
	// MaxActiveJobs is the tenant's quota of queued plus running jobs
	// (0 = unlimited).
	MaxActiveJobs int
}

// Submit enqueues a job. When opts.IdempotencyKey matches an earlier
// submission of the same kind, the existing job is returned with
// existing=true and nothing is enqueued — duplicate submits are safe,
// even at the tenant's quota. A new job that would exceed
// opts.MaxActiveJobs is refused with ErrQuotaExceeded; the count and
// the admission happen under one lock, so concurrent submissions cannot
// together exceed the quota.
func (m *Manager) Submit(kind string, req json.RawMessage, opts SubmitOptions) (job Job, existing bool, err error) {
	if !slices.Contains(m.cfg.Kinds, kind) {
		return Job{}, false, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	if opts.Webhook != "" {
		u, err := url.Parse(opts.Webhook)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return Job{}, false, fmt.Errorf("jobs: webhook %q is not an absolute http(s) URL", opts.Webhook)
		}
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
	if opts.MaxActiveJobs > 0 {
		active := 0
		m.store.Range(func(j Job) {
			if !j.State.Terminal() && tenant.Normalize(j.TenantID) == tenantID {
				active++
			}
		})
		if active >= opts.MaxActiveJobs {
			return Job{}, false, quotaError{tenantID, active, opts.MaxActiveJobs}
		}
	}
	j := Job{
		ID:             NewID(),
		Kind:           kind,
		TenantID:       tenantID,
		State:          StateQueued,
		IdempotencyKey: opts.IdempotencyKey,
		Request:        req,
		MaxAttempts:    m.cfg.MaxAttempts,
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
	m.logJob(slog.LevelInfo, "job queued", j)
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
	slices.Reverse(out)
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
		m.logJob(slog.LevelInfo, "job canceled while queued", j)
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
		m.logJob(slog.LevelError, "job state not persisted", j, slog.Any("err", err))
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
	m.logJob(slog.LevelInfo, "job running", j, slog.Int("attempt", j.Attempts), slog.Int("max_attempts", j.MaxAttempts))

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
		m.logJob(slog.LevelInfo, "job re-queued by drain", j)
		return
	case errors.Is(cause, ErrCanceled):
		j.State = StateCanceled
		j.Error = ErrCanceled.Error()
		j.FinishedAt = now
	case errors.Is(runErr, context.DeadlineExceeded):
		// Retryable: the attempt hit its deadline (the machine may
		// simply have been saturated).
		j.Error = runErr.Error()
		j.ErrorCode = m.classify(runErr)
		if j.Attempts >= j.MaxAttempts {
			j.State = StateDead
			j.FinishedAt = now
			break
		}
		delay := retrySchedule.delay(j.ID, j.Attempts)
		j.State = StateQueued
		j.NotBefore = now.Add(delay)
		j.StartedAt = time.Time{}
		j.Progress = Progress{}
		m.persistAndPublishLocked(j)
		m.logJob(slog.LevelWarn, "job attempt failed; retrying", j, slog.Int("attempt", j.Attempts), slog.Any("err", runErr), slog.Duration("retry_in", delay))
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
	m.logJob(slog.LevelInfo, "job finished", j)
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
		m.logJob(slog.LevelError, "job state not persisted", j, slog.Any("err", err))
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

func (m *Manager) classify(err error) string {
	if m.cfg.ClassifyError == nil || err == nil {
		return ""
	}
	return m.cfg.ClassifyError(err)
}

// idemIndex keys the idempotency map by (tenant, kind, key) so two
// tenants reusing the same Idempotency-Key never see each other's jobs.
func idemIndex(tenantID, kind, key string) string {
	return tenant.Normalize(tenantID) + "\x00" + kind + "\x00" + key
}

// logJob records one event of j's lifecycle with the job's ID, kind and
// state as attributes.
func (m *Manager) logJob(level slog.Level, msg string, j Job, attrs ...slog.Attr) {
	if m.cfg.Logger == nil {
		return
	}
	attrs = append([]slog.Attr{slog.String("job", j.ID), slog.String("kind", j.Kind), slog.String("state", string(j.State))}, attrs...)
	m.cfg.Logger.LogAttrs(context.Background(), level, msg, attrs...)
}
