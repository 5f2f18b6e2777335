// Package jobs is the durable asynchronous job layer of the medshield
// service: long protections (protect, plan, apply, fingerprint,
// traceback) submitted as queued jobs instead of blocking RPCs. A
// bounded worker pool drains a persistent queue; every state transition
// is persisted through internal/recstore, so queued and running jobs
// survive a crash and are re-enqueued on boot. Attempts that run past
// their deadline retry on a fixed, per-job jittered schedule up to a
// max-attempts dead-letter state; client-supplied idempotency keys make
// duplicate submits return the existing job; progress streams out via
// an internal/sse hub and completion fires HMAC-signed webhooks with
// their own capped-retry delivery log.
//
// The package is payload-agnostic: a Job carries its request and result
// as raw JSON, and a Runner (implemented by internal/server over the
// core.Framework) executes one attempt. Everything queue-shaped —
// persistence, retry policy, cancellation, idempotency, events,
// webhooks — lives here.
//
// Job lifecycle:
//
//	queued ──► running ──► succeeded
//	  ▲           │  │
//	  │ (retry/   │  └────► failed      (permanent error)
//	  │  drain)   │
//	  └───────────┤
//	              ├───────► dead        (attempt deadline, attempts exhausted)
//	              └───────► canceled    (client cancel; also from queued)
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
	// StateDead is the dead-letter state: every allowed attempt ran past
	// its deadline. The job is terminal but its request is retained for
	// inspection and manual resubmission.
	StateDead State = "dead"
)

// Terminal reports whether the state is final (no further transitions).
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCanceled, StateDead:
		return true
	}
	return false
}

// Valid reports whether s is a known state.
func (s State) Valid() bool {
	switch s {
	case StateQueued, StateRunning, StateSucceeded, StateFailed, StateCanceled, StateDead:
		return true
	}
	return false
}

// Progress mirrors core.Progress on the job record: the running stage
// and its unit counts (Total 0 = unknown extent).
type Progress struct {
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total,omitempty"`
}

// Delivery is one webhook delivery attempt in the job's delivery log.
type Delivery struct {
	// Attempt numbers deliveries from 1.
	Attempt int `json:"attempt"`
	// At is the attempt time.
	At time.Time `json:"at"`
	// Status is the receiver's HTTP status (0 when the request itself
	// failed).
	Status int `json:"status,omitempty"`
	// Error is the transport error, if any.
	Error string `json:"error,omitempty"`
	// OK marks a 2xx delivery.
	OK bool `json:"ok"`
}

// Job is one queued unit of pipeline work. The request and result ride
// as raw JSON documents of the corresponding synchronous API endpoint —
// the job layer never interprets them.
//
// Note that Request usually embeds the owner's secret (exactly like the
// synchronous request bodies do); a durable store therefore holds
// secrets at rest while a job is queued or running, and the store file
// is written 0600. A job drops its request when it finishes, unless it
// has a webhook: the delivery signs with the secret in the request, so
// such a job keeps it. Deployments that must not persist secrets run
// the job store in memory.
type Job struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// TenantID names the tenant that submitted the job; get/list/cancel
	// and the SSE event stream are scoped to it. Empty means
	// tenant.DefaultID — stores written before multi-tenancy migrate on
	// load.
	TenantID string `json:"tenant_id,omitempty"`
	State    State  `json:"state"`
	// IdempotencyKey dedups submissions per (tenant, kind): a second
	// submit with the same key returns this job instead of creating a
	// new one. Two tenants reusing the same key never collide.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Request is the submitted payload (the sync endpoint's JSON body),
	// nil once the job is terminal unless it has a webhook.
	Request json.RawMessage `json:"request,omitempty"`
	// Result is the sync endpoint's JSON response, set on success.
	Result json.RawMessage `json:"result,omitempty"`
	// Error and ErrorCode describe the last failure (ErrorCode is the
	// api wire code when the manager has a classifier).
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
	// Attempts counts started run attempts; MaxAttempts bounds them.
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"max_attempts"`
	// NotBefore is the earliest next run time while a retry backoff is
	// pending (informational; the in-process timer is authoritative).
	NotBefore  time.Time `json:"not_before,omitzero"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// Progress is the latest reported progress of the running attempt.
	Progress Progress `json:"progress,omitzero"`
	// Webhook is the completion callback URL ("" = none); Deliveries is
	// its attempt log, WebhookOK whether a delivery succeeded.
	Webhook    string     `json:"webhook,omitempty"`
	Deliveries []Delivery `json:"deliveries,omitempty"`
	WebhookOK  bool       `json:"webhook_ok,omitempty"`
}

// Validate checks the record's internal consistency (used by the store
// on load — a half-understood queue must not silently run).
func (j Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("jobs: job has an empty ID")
	}
	if j.Kind == "" {
		return fmt.Errorf("jobs: job %s has an empty kind", j.ID)
	}
	// NUL delimits tenant/kind/key in the idempotency index.
	if strings.ContainsRune(j.TenantID, '\x00') {
		return fmt.Errorf("jobs: job %s has a NUL in its tenant ID", j.ID)
	}
	if !j.State.Valid() {
		return fmt.Errorf("jobs: job %s has unknown state %q", j.ID, j.State)
	}
	if j.MaxAttempts < 1 {
		return fmt.Errorf("jobs: job %s has max_attempts %d (want >= 1)", j.ID, j.MaxAttempts)
	}
	return nil
}

// Sentinel errors of the job layer.
var (
	// ErrNotFound marks lookups of unknown job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrDraining marks submissions refused because the manager is
	// shutting down.
	ErrDraining = errors.New("jobs: manager is draining; submissions refused")
	// ErrUnknownKind marks submissions of a kind the manager does not
	// serve.
	ErrUnknownKind = errors.New("jobs: unknown job kind")
	// ErrQuotaExceeded marks submissions refused because the tenant
	// already has SubmitOptions.MaxActiveJobs jobs queued or running.
	ErrQuotaExceeded = errors.New("jobs: active-job quota exceeded")
	// ErrCanceled is the cancellation cause a client cancel injects into
	// a running job's context; the attempt ends in StateCanceled.
	ErrCanceled = errors.New("jobs: job canceled by request")
	// errDrain is the internal cancellation cause of a graceful drain; a
	// drained attempt goes back to queued without consuming an attempt.
	errDrain = errors.New("jobs: draining; job re-queued")
)

// quotaError is the ErrQuotaExceeded refusal, naming the tenant's count.
type quotaError struct {
	tenant        string
	active, quota int
}

func (e quotaError) Error() string {
	return fmt.Sprintf("tenant %q already has %d active jobs (quota %d); wait for one to finish", e.tenant, e.active, e.quota)
}

func (quotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// NewID returns a fresh job ID: "j-" + 16 hex characters.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; an ID from a
		// degraded source would risk silent collisions in the store.
		panic(fmt.Sprintf("jobs: reading random ID bytes: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}
