package jobs

import (
	"encoding/json"

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

// Snapshot is the wire form of a job on event streams, webhook
// payloads and job resources: the record with its tenant, request and
// result cleared (the request can hold the owner's secret, and both it
// and the result can be megabytes; clients fetch the result via the job
// resource). All three are omitempty, so they do not appear.
type Snapshot = Job

// SnapshotOf trims a job to its wire form.
func SnapshotOf(j Job) Snapshot {
	j.TenantID, j.Request, j.Result = "", nil, nil
	return j
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
