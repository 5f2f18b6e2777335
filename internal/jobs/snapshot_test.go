package jobs_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// TestSnapshotBytes pins the wire form of a job — state events, webhook
// payloads and the job resource — for a record with every field set:
// the tenant, request and result never appear in a snapshot, and the
// job resource carries the result beside it. Both are json.Marshal's
// bytes, HTML-escaped, as events and webhooks send them.
func TestSnapshotBytes(t *testing.T) {
	at := func(min int) time.Time { return time.Date(2026, 8, 1, 12, min, 0, 0, time.UTC) }
	j := jobs.Job{
		ID: "j-00000000000000ab", Kind: "fingerprint", TenantID: "hospital-b", State: jobs.StateSucceeded,
		IdempotencyKey: "nightly-7", Request: json.RawMessage(`{"secret":"s","k":20}`),
		Result: json.RawMessage(`{"rows":600}`), Error: "deadline <&>", ErrorCode: "timeout",
		Attempts: 2, MaxAttempts: 3, NotBefore: at(2),
		CreatedAt: at(1), StartedAt: at(3), FinishedAt: at(4),
		Progress: jobs.Progress{Stage: "apply", Done: 600, Total: 600},
		Webhook:  "https://example.invalid/hook?a=1&b=2",
		Deliveries: []jobs.Delivery{
			{Attempt: 1, At: at(5), Status: 502, Error: "receiver returned status 502"},
			{Attempt: 2, At: at(6), Status: 200, OK: true},
		},
		WebhookOK: true,
	}
	const snapshot = `{"id":"j-00000000000000ab","kind":"fingerprint","state":"succeeded","idempotency_key":"nightly-7",` +
		`"error":"deadline \u003c\u0026\u003e","error_code":"timeout","attempts":2,"max_attempts":3,` +
		`"not_before":"2026-08-01T12:02:00Z","created_at":"2026-08-01T12:01:00Z","started_at":"2026-08-01T12:03:00Z",` +
		`"finished_at":"2026-08-01T12:04:00Z","progress":{"stage":"apply","done":600,"total":600},` +
		`"webhook":"https://example.invalid/hook?a=1\u0026b=2","deliveries":[` +
		`{"attempt":1,"at":"2026-08-01T12:05:00Z","status":502,"error":"receiver returned status 502","ok":false},` +
		`{"attempt":2,"at":"2026-08-01T12:06:00Z","status":200,"ok":true}],"webhook_ok":true}`
	got, err := json.Marshal(jobs.SnapshotOf(j))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != snapshot {
		t.Errorf("snapshot bytes:\n got %s\nwant %s", got, snapshot)
	}

	resource := `{"version":"` + api.Version + `","job":` + snapshot + `,"result":{"rows":600}}`
	got, err = json.Marshal(api.JobResponse{Version: api.Version, Job: jobs.SnapshotOf(j), Result: j.Result})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != resource {
		t.Errorf("job resource bytes:\n got %s\nwant %s", got, resource)
	}
}
