package jobs

import (
	"encoding/json"
	"time"

	"repro/internal/sse"
)

// Topic returns the hub topic carrying job id's events.
func Topic(id string) string { return "jobs/" + id }

// Event types published on a job's topic.
const (
	// EventState carries a Snapshot JSON document on every lifecycle
	// transition (queued, running, retry re-queue, terminal states).
	EventState = "state"
	// EventProgress carries a Progress JSON document per pipeline
	// progress report of the running attempt.
	EventProgress = "progress"
)

// Snapshot is the wire form of a job on event streams and webhook
// payloads: the full record minus the request and result documents
// (both can be megabytes; clients fetch the result via the job
// resource).
type Snapshot struct {
	ID             string     `json:"id"`
	Kind           string     `json:"kind"`
	State          State      `json:"state"`
	IdempotencyKey string     `json:"idempotency_key,omitempty"`
	Error          string     `json:"error,omitempty"`
	ErrorCode      string     `json:"error_code,omitempty"`
	Attempts       int        `json:"attempts"`
	MaxAttempts    int        `json:"max_attempts"`
	NotBefore      time.Time  `json:"not_before,omitzero"`
	CreatedAt      time.Time  `json:"created_at"`
	StartedAt      time.Time  `json:"started_at,omitzero"`
	FinishedAt     time.Time  `json:"finished_at,omitzero"`
	Progress       Progress   `json:"progress,omitzero"`
	Webhook        string     `json:"webhook,omitempty"`
	Deliveries     []Delivery `json:"deliveries,omitempty"`
	WebhookOK      bool       `json:"webhook_ok,omitempty"`
}

// SnapshotOf trims a job to its event/webhook form.
func SnapshotOf(j Job) Snapshot {
	return Snapshot{
		ID:             j.ID,
		Kind:           j.Kind,
		State:          j.State,
		IdempotencyKey: j.IdempotencyKey,
		Error:          j.Error,
		ErrorCode:      j.ErrorCode,
		Attempts:       j.Attempts,
		MaxAttempts:    j.MaxAttempts,
		NotBefore:      j.NotBefore,
		CreatedAt:      j.CreatedAt,
		StartedAt:      j.StartedAt,
		FinishedAt:     j.FinishedAt,
		Progress:       j.Progress,
		Webhook:        j.Webhook,
		Deliveries:     j.Deliveries,
		WebhookOK:      j.WebhookOK,
	}
}

// publish emits a state event for j on its topic.
func (m *Manager) publish(j Job) { m.emit(j.ID, EventState, SnapshotOf(j)) }

// publishProgress emits a progress event for job id.
func (m *Manager) publishProgress(id string, p Progress) { m.emit(id, EventProgress, p) }

// emit publishes v as an event of type typ on job id's topic.
func (m *Manager) emit(id, typ string, v any) {
	if m.cfg.Hub == nil {
		return
	}
	if data, err := json.Marshal(v); err == nil {
		m.cfg.Hub.Publish(Topic(id), sse.Event{Type: typ, Data: data})
	}
}
