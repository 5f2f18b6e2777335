package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sse"
)

// fakeClock is a manually advanced Clock: After registers a timer that
// fires when Advance moves the clock past its deadline. Tests inspect
// pending delays to assert the backoff schedule without real sleeps.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at    time.Time
	delay time.Duration
	ch    chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), delay: d, ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
		return t.ch
	}
	c.timers = append(c.timers, t)
	return t.ch
}

// Advance moves the clock and fires every timer whose deadline passed.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	var rest []*fakeTimer
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			rest = append(rest, t)
		}
	}
	c.timers = rest
}

// pendingDelays returns the requested delays of unfired timers.
func (c *fakeClock) pendingDelays() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.timers))
	for i, t := range c.timers {
		out[i] = t.delay
	}
	return out
}

// fakeRunner runs fn per attempt; secret is the webhook signing secret.
type fakeRunner struct {
	fn     func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error)
	secret string
}

func (r *fakeRunner) Run(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
	return r.fn(ctx, job, progress)
}
func (r *fakeRunner) Secret(Job) string { return r.secret }

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	var j Job
	waitFor(t, fmt.Sprintf("job %s to reach %s", id, want), func() bool {
		var ok bool
		j, ok = m.Get(id)
		return ok && j.State == want
	})
	return j
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	if cfg.Kinds == nil {
		cfg.Kinds = []string{"protect", "noop"}
	}
	cfg.DisableJitter = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m
}

// TestRetryBackoffSchedule drives a job that always fails transiently
// through its full retry schedule under the fake clock: delays must
// follow Base<<n capped at Max, and the job must land in the
// dead-letter state after MaxAttempts — all without a real sleep.
func TestRetryBackoffSchedule(t *testing.T) {
	clock := newFakeClock()
	var attempts atomic.Int64
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			attempts.Add(1)
			return nil, Transient(errors.New("upstream wobble"))
		}},
		Workers:        1,
		MaxAttempts:    4,
		Backoff:        Backoff{Base: 2 * time.Second, Max: 5 * time.Second},
		AttemptTimeout: -1,
		Clock:          clock,
	})

	j, existing, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil || existing {
		t.Fatalf("submit: existing=%v err=%v", existing, err)
	}

	// Expected pre-jitter delays after attempts 1..3: 2s, 4s, 5s (capped).
	want := []time.Duration{2 * time.Second, 4 * time.Second, 5 * time.Second}
	for i, d := range want {
		waitFor(t, fmt.Sprintf("retry timer %d", i+1), func() bool {
			return len(clock.pendingDelays()) == 1
		})
		if got := clock.pendingDelays()[0]; got != d {
			t.Fatalf("retry %d delay = %s, want %s", i+1, got, d)
		}
		got, _ := m.Get(j.ID)
		if got.State != StateQueued {
			t.Fatalf("retry %d: state = %s, want queued", i+1, got.State)
		}
		if got.NotBefore.IsZero() {
			t.Fatalf("retry %d: NotBefore not recorded", i+1)
		}
		clock.Advance(d)
	}

	final := waitState(t, m, j.ID, StateDead)
	if n := attempts.Load(); n != 4 {
		t.Fatalf("runner attempts = %d, want 4", n)
	}
	if final.Attempts != 4 {
		t.Fatalf("job attempts = %d, want 4", final.Attempts)
	}
	if final.Error == "" || final.FinishedAt.IsZero() {
		t.Fatalf("dead job lacks error/finish time: %+v", final)
	}
}

// TestPermanentFailureNoRetry: an unmarked error must fail the job on
// the first attempt, with the classifier's code recorded.
func TestPermanentFailureNoRetry(t *testing.T) {
	var attempts atomic.Int64
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			attempts.Add(1)
			return nil, errors.New("bad request shape")
		}},
		MaxAttempts:   5,
		ClassifyError: func(error) string { return "bad_request" },
	})
	j, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, j.ID, StateFailed)
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on permanent errors)", attempts.Load())
	}
	if final.ErrorCode != "bad_request" {
		t.Fatalf("error code = %q, want bad_request", final.ErrorCode)
	}
}

// TestIdempotencyConcurrentSubmits hammers Submit with one idempotency
// key from many goroutines (run under -race in CI): exactly one job may
// be created; every other submit must return it.
func TestIdempotencyConcurrentSubmits(t *testing.T) {
	block := make(chan struct{})
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			<-block
			return json.RawMessage(`"done"`), nil
		}},
		Workers: 4,
	})

	const n = 32
	ids := make([]string, n)
	created := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, existing, err := m.Submit("protect", json.RawMessage(`{"i":1}`), SubmitOptions{IdempotencyKey: "same-key"})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = j.ID
			created[i] = !existing
		}(i)
	}
	wg.Wait()
	close(block)

	var createdCount int
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submit %d returned job %s, want %s (dedup broke)", i, ids[i], ids[0])
		}
	}
	for _, c := range created {
		if c {
			createdCount++
		}
	}
	if createdCount != 1 {
		t.Fatalf("%d submits created a job, want exactly 1", createdCount)
	}
	if got := m.store.Len(); got != 1 {
		t.Fatalf("store holds %d jobs, want 1", got)
	}
	// A different kind with the same key is a distinct job.
	j2, existing, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{IdempotencyKey: "same-key"})
	if err != nil || existing {
		t.Fatalf("cross-kind submit: existing=%v err=%v", existing, err)
	}
	if j2.ID == ids[0] {
		t.Fatal("idempotency key collided across kinds")
	}
	waitState(t, m, ids[0], StateSucceeded)
}

// TestCancelQueuedAndRunning covers both cancel paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			started <- job.ID
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}},
		Workers: 1,
	})

	// Two jobs on one worker: the second stays queued while the first
	// runs.
	j1, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	if _, err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	got2 := waitState(t, m, j2.ID, StateCanceled)
	if got2.Attempts != 0 {
		t.Fatalf("queued-cancel consumed %d attempts", got2.Attempts)
	}

	if _, err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	got1 := waitState(t, m, j1.ID, StateCanceled)
	if got1.Attempts != 1 {
		t.Fatalf("running-cancel attempts = %d, want 1", got1.Attempts)
	}

	// Cancel is idempotent on terminal jobs.
	again, err := m.Cancel(j1.ID)
	if err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: state=%s err=%v", again.State, err)
	}
	if _, err := m.Cancel("j-missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
}

// TestDrainRequeuesRunning: Close must kick a running job back to
// queued without consuming an attempt, and refuse new submissions.
func TestDrainRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	runner := &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}}
	m, err := New(Config{Store: store, Runner: runner, Kinds: []string{"noop"}, Workers: 1, DisableJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	m.Drain()
	if !m.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The store on disk must show the job queued with no attempt spent.
	reloaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reloaded.Get(j.ID)
	if !ok {
		t.Fatal("job lost across drain")
	}
	if got.State != StateQueued || got.Attempts != 0 {
		t.Fatalf("drained job: state=%s attempts=%d, want queued/0", got.State, got.Attempts)
	}

	// A fresh manager over the same store completes it.
	runner2 := &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
		return json.RawMessage(`"after restart"`), nil
	}}
	m2, err := New(Config{Store: reloaded, Runner: runner2, Kinds: []string{"noop"}, Workers: 1, DisableJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	final := waitState(t, m2, j.ID, StateSucceeded)
	if string(final.Result) != `"after restart"` {
		t.Fatalf("result = %s", final.Result)
	}
}

// TestCrashRecovery simulates kill -9 mid-job: snapshot the store file
// while the job is persisted as running, then boot a fresh manager from
// the snapshot. The job must be re-enqueued exactly once (not lost, not
// duplicated) and complete; resubmitting its idempotency key must
// return it, not create a second job.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "jobs.json")
	snapshot := filepath.Join(dir, "jobs.crash.json")

	store, err := Open(live)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	runner := &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`"first life"`), nil
	}}
	m, err := New(Config{Store: store, Runner: runner, Kinds: []string{"protect"}, Workers: 1, DisableJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit("protect", json.RawMessage(`{"table":"x"}`), SubmitOptions{IdempotencyKey: "nightly-1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// The running state is persisted before the runner is invoked; the
	// file now captures the mid-job moment a kill -9 would freeze.
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot, data, 0o600); err != nil {
		t.Fatal(err)
	}
	close(release)
	m.Close(context.Background())

	// "Reboot" from the crash snapshot.
	store2, err := Open(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := store2.Get(j.ID); got.State != StateRunning {
		t.Fatalf("snapshot state = %s, want running (mid-job)", got.State)
	}
	var attempts atomic.Int64
	runner2 := &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
		attempts.Add(1)
		return json.RawMessage(`"second life"`), nil
	}}
	m2, err := New(Config{Store: store2, Runner: runner2, Kinds: []string{"protect"}, Workers: 2, DisableJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())

	final := waitState(t, m2, j.ID, StateSucceeded)
	if string(final.Result) != `"second life"` {
		t.Fatalf("result = %s", final.Result)
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts after recovery = %d, want 1 (interrupted attempt uncounted)", final.Attempts)
	}
	if attempts.Load() != 1 {
		t.Fatalf("runner ran %d times after recovery, want 1 (no duplication)", attempts.Load())
	}
	if store2.Len() != 1 {
		t.Fatalf("store holds %d jobs, want 1", store2.Len())
	}
	// Same idempotency key after the restart: still the same job.
	again, existing, err := m2.Submit("protect", json.RawMessage(`{"table":"x"}`), SubmitOptions{IdempotencyKey: "nightly-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !existing || again.ID != j.ID {
		t.Fatalf("resubmit after recovery: existing=%v id=%s, want existing id %s", existing, again.ID, j.ID)
	}
}

// TestProgressAndEvents: progress reports surface on Get and stream
// through the hub; the terminal state event arrives last.
func TestProgressAndEvents(t *testing.T) {
	hub := sse.NewHub()
	defer hub.Close()
	subscribed := make(chan struct{})
	gate := make(chan struct{})
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			// Hold progress until the test has subscribed, so every
			// progress event is observable.
			<-subscribed
			progress(Progress{Stage: "plan", Done: 0, Total: 2})
			progress(Progress{Stage: "apply", Done: 1, Total: 2})
			<-gate
			return json.RawMessage(`"ok"`), nil
		}},
		Hub: hub,
	})

	j, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub := hub.Subscribe(Topic(j.ID), 64)
	defer sub.Close()
	close(subscribed)

	waitFor(t, "live progress on Get", func() bool {
		got, _ := m.Get(j.ID)
		return got.State == StateRunning && got.Progress.Stage == "apply" && got.Progress.Done == 1
	})
	close(gate)
	final := waitState(t, m, j.ID, StateSucceeded)
	if final.Progress.Stage != "apply" || final.Progress.Done != 1 {
		t.Fatalf("terminal record lost last progress: %+v", final.Progress)
	}

	var sawProgress, sawTerminal bool
	deadline := time.After(5 * time.Second)
	for !sawTerminal {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("subscription closed before terminal event")
			}
			switch ev.Type {
			case EventProgress:
				sawProgress = true
			case EventState:
				var snap Snapshot
				if err := json.Unmarshal(ev.Data, &snap); err != nil {
					t.Fatalf("state event payload: %v", err)
				}
				if snap.State == StateSucceeded {
					sawTerminal = true
				}
			}
		case <-deadline:
			t.Fatal("no terminal state event within 5s")
		}
	}
	if !sawProgress {
		t.Fatal("no progress events observed")
	}
}

// TestSubmitValidation covers kind and webhook validation.
func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{
		Runner: &fakeRunner{
			fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
				return nil, nil
			},
			secret: "", // no signing secret available
		},
	})
	if _, _, err := m.Submit("mystery", nil, SubmitOptions{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, _, err := m.Submit("noop", nil, SubmitOptions{Webhook: "not a url"}); err == nil {
		t.Fatal("malformed webhook URL accepted")
	}
	if _, _, err := m.Submit("noop", nil, SubmitOptions{Webhook: "ftp://x/y"}); err == nil {
		t.Fatal("non-http webhook URL accepted")
	}
	if _, _, err := m.Submit("noop", nil, SubmitOptions{Webhook: "http://127.0.0.1:1/hook"}); err == nil {
		t.Fatal("webhook without a signing secret accepted")
	}
}

// TestManagerTTLSweep pins the garbage collector: terminal jobs older
// than TTL are deleted from the store and their idempotency keys
// released (a resubmission starts a fresh job), while younger terminal
// jobs and non-terminal jobs survive every sweep.
func TestManagerTTLSweep(t *testing.T) {
	clock := newFakeClock()
	release := make(chan struct{})
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, _ func(Progress)) (json.RawMessage, error) {
			if job.Kind == "noop" {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return json.RawMessage(`{"ok":true}`), nil
		}},
		Clock:      clock,
		TTL:        time.Hour,
		GCInterval: 10 * time.Minute,
	})

	done, _, err := m.Submit("protect", json.RawMessage(`{}`), SubmitOptions{IdempotencyKey: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, done.ID, StateSucceeded)
	running, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)

	// Under the TTL: sweeps run but must not collect, and the
	// idempotency key still dedups.
	clock.Advance(30 * time.Minute)
	if _, existing, err := m.Submit("protect", json.RawMessage(`{}`), SubmitOptions{IdempotencyKey: "dup"}); err != nil || !existing {
		t.Fatalf("young terminal job lost its idempotency key (existing=%v err=%v)", existing, err)
	}
	if _, ok := m.Get(done.ID); !ok {
		t.Fatal("terminal job collected before its TTL")
	}

	// Past the TTL: each poll advances one GC interval until a sweep
	// fires and collects the finished job.
	waitFor(t, "terminal job to expire", func() bool {
		clock.Advance(10 * time.Minute)
		_, ok := m.Get(done.ID)
		return !ok
	})
	// The long-running job outlived every sweep untouched.
	if j, ok := m.Get(running.ID); !ok || j.State != StateRunning {
		t.Fatalf("running job swept (ok=%v state %v)", ok, j.State)
	}
	// The released key starts a brand-new job instead of resurrecting
	// the expired record.
	fresh, existing, err := m.Submit("protect", json.RawMessage(`{}`), SubmitOptions{IdempotencyKey: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if existing || fresh.ID == done.ID {
		t.Fatalf("expired idempotency key resurrected job %s (existing=%v)", fresh.ID, existing)
	}
	close(release)
	waitState(t, m, running.ID, StateSucceeded)
	waitState(t, m, fresh.ID, StateSucceeded)
}

// TestFileStoreDelete pins Delete round-trips through the on-disk
// document: a deleted record stays gone after reopening, and deleting
// an absent ID is a no-op.
func TestFileStoreDelete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{ID: NewID(), Kind: "protect", State: StateSucceeded, MaxAttempts: 1, CreatedAt: time.Now().UTC()}
	if err := s.Put(j); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("no-such-id"); err != nil {
		t.Fatalf("deleting an absent id: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("no-op delete changed Len to %d", s.Len())
	}
	if err := s.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete", s.Len())
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 {
		t.Fatalf("deleted record survived reopen (Len = %d)", re.Len())
	}
}

// TestFinishedJobDropsRequest: every terminal transition of a job
// without a webhook — success, failure, a running job's cancel and a
// queued job's cancel — drops its request, in memory and in the store
// file, so the submitted table and the owner's secret do not outlive
// the job. A webhook job keeps its request: the delivery signs with the
// secret in it.
func TestFinishedJobDropsRequest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 8)
	m := newTestManager(t, Config{
		Store: store,
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			switch job.Kind {
			case "protect":
				return nil, errors.New("bad request shape")
			case "block":
				started <- job.ID
				<-ctx.Done()
				return nil, context.Cause(ctx)
			}
			return json.RawMessage(`{"rows":1}`), nil
		}, secret: "owner-secret"},
		Kinds:       []string{"protect", "noop", "block"},
		Workers:     1,
		MaxAttempts: 1,
		Deliver:     func(string, http.Header, []byte) (int, error) { return 200, nil },
	})
	req := json.RawMessage(`{"secret":"owner-secret","csv":"ssn\n123-45-6789\n"}`)
	submit := func(kind string, opts SubmitOptions) Job {
		t.Helper()
		j, _, err := m.Submit(kind, req, opts)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	succeeded := waitState(t, m, submit("noop", SubmitOptions{}).ID, StateSucceeded)
	failed := waitState(t, m, submit("protect", SubmitOptions{}).ID, StateFailed)
	hooked := submit("noop", SubmitOptions{Webhook: "http://receiver.test/hook"})
	waitFor(t, "webhook delivery", func() bool {
		j, _ := m.Get(hooked.ID)
		return j.WebhookOK
	})
	running := submit("block", SubmitOptions{})
	<-started
	queued := submit("noop", SubmitOptions{})
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateCanceled)
	waitState(t, m, queued.ID, StateCanceled)

	for _, j := range []Job{succeeded, failed, running, queued} {
		if got, _ := m.Get(j.ID); got.Request != nil {
			t.Errorf("%s job %s (%s) still holds its request", got.State, j.ID, j.Kind)
		}
	}
	if got, _ := m.Get(hooked.ID); string(got.Request) != string(req) {
		t.Errorf("webhook job request = %s, want it kept", got.Request)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "123-45-6789"); n != 1 {
		t.Errorf("store file holds the submitted table %d times, want once (the webhook job)", n)
	}
}
