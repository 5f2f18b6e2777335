package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestSignAndVerify(t *testing.T) {
	payload := []byte(`{"id":"j-1","state":"succeeded"}`)
	sig := Sign("master-secret", payload)
	if len(sig) != len("sha256=")+64 {
		t.Fatalf("signature shape: %q", sig)
	}
	if !VerifySignature("master-secret", payload, sig) {
		t.Fatal("valid signature rejected")
	}
	if VerifySignature("wrong-secret", payload, sig) {
		t.Fatal("signature verified under the wrong secret")
	}
	if VerifySignature("master-secret", []byte(`{"id":"j-2"}`), sig) {
		t.Fatal("signature verified for a different payload")
	}
}

// TestWebhookRetriesAndDeliveryLog injects a deliverer that fails twice
// (transport error, then 500) before succeeding: the delivery log must
// record all three attempts in order, the payload must verify against
// the runner's secret, and it must not leak the request document.
func TestWebhookRetriesAndDeliveryLog(t *testing.T) {
	type call struct {
		url     string
		headers http.Header
		body    []byte
	}
	var mu sync.Mutex
	var calls []call
	deliver := func(url string, headers http.Header, body []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, call{url: url, headers: headers.Clone(), body: body})
		switch len(calls) {
		case 1:
			return 0, errors.New("connection refused")
		case 2:
			return 500, nil
		default:
			return 200, nil
		}
	}

	clock := newFakeClock()
	m := newTestManager(t, Config{
		Runner: &fakeRunner{
			fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
				return json.RawMessage(`{"rows":42}`), nil
			},
			secret: "owner-master-secret",
		},
		Clock:          clock,
		AttemptTimeout: -1,
		Deliver:        deliver,
	})

	j, _, err := m.Submit("noop", json.RawMessage(`{"secret":"owner-master-secret"}`), SubmitOptions{
		Webhook: "http://receiver.test/hook",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the delivery waits of webhookSchedule after attempts 1
	// and 2.
	driveWebhookWaits(t, clock, j.ID, 2)
	final := waitState(t, m, j.ID, StateSucceeded)
	waitFor(t, "webhook delivery to succeed", func() bool {
		got, _ := m.Get(j.ID)
		return got.WebhookOK
	})
	got, _ := m.Get(j.ID)

	if len(got.Deliveries) != 3 {
		t.Fatalf("delivery log has %d attempts, want 3: %+v", len(got.Deliveries), got.Deliveries)
	}
	d1, d2, d3 := got.Deliveries[0], got.Deliveries[1], got.Deliveries[2]
	if d1.Attempt != 1 || d1.OK || d1.Error == "" || d1.Status != 0 {
		t.Fatalf("attempt 1 log: %+v", d1)
	}
	if d2.Attempt != 2 || d2.OK || d2.Status != 500 {
		t.Fatalf("attempt 2 log: %+v", d2)
	}
	if d3.Attempt != 3 || !d3.OK || d3.Status != 200 {
		t.Fatalf("attempt 3 log: %+v", d3)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 3 {
		t.Fatalf("deliverer called %d times, want 3", len(calls))
	}
	last := calls[2]
	if last.url != "http://receiver.test/hook" {
		t.Fatalf("delivered to %q", last.url)
	}
	if got := last.headers.Get(JobIDHeader); got != j.ID {
		t.Fatalf("%s = %q, want %q", JobIDHeader, got, j.ID)
	}
	if got := last.headers.Get(DeliveryHeader); got != "3" {
		t.Fatalf("%s = %q, want 3", DeliveryHeader, got)
	}
	if got := last.headers.Get(EventHeader); got != "job.completed" {
		t.Fatalf("%s = %q", EventHeader, got)
	}
	sig := last.headers.Get(SignatureHeader)
	if !VerifySignature("owner-master-secret", last.body, sig) {
		t.Fatalf("webhook body does not verify against its signature %q", sig)
	}
	var snap Snapshot
	if err := json.Unmarshal(last.body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != j.ID || snap.State != StateSucceeded {
		t.Fatalf("webhook snapshot: %+v", snap)
	}
	// The payload is the snapshot: no request (secret!) or result body.
	var raw map[string]any
	if err := json.Unmarshal(last.body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw["request"]; has {
		t.Fatal("webhook payload leaks the request document")
	}
	if _, has := raw["result"]; has {
		t.Fatal("webhook payload carries the result document")
	}
	_ = final
}

// driveWebhookWaits advances the fake clock through the delivery waits
// after attempts 1..n of job id's webhook, checking each is
// webhookSchedule's: 1s, 2s, 4s and 8s, jittered per job.
func driveWebhookWaits(t *testing.T, clock *fakeClock, id string, n int) {
	t.Helper()
	for attempt := 1; attempt <= n; attempt++ {
		d := time.Second << (attempt - 1)
		want := webhookSchedule.delay(id, attempt)
		if want < d/2 || want >= d {
			t.Fatalf("webhook wait after attempt %d = %s, outside [%s, %s)", attempt, want, d/2, d)
		}
		waitFor(t, fmt.Sprintf("webhook wait after attempt %d", attempt), func() bool {
			delays := clock.pendingDelays()
			return len(delays) == 1 && delays[0] == want
		})
		clock.Advance(want)
	}
}

// TestWebhookGivesUpAfterMaxAttempts: a receiver that never accepts
// exhausts the webhookAttempts deliveries; the log records each attempt
// and WebhookOK stays false.
func TestWebhookGivesUpAfterMaxAttempts(t *testing.T) {
	var mu sync.Mutex
	var count int
	deliver := func(url string, headers http.Header, body []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		count++
		return 503, nil
	}
	clock := newFakeClock()
	m := newTestManager(t, Config{
		Runner: &fakeRunner{
			fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
				return json.RawMessage(`"ok"`), nil
			},
			secret: "s",
		},
		Clock:          clock,
		AttemptTimeout: -1,
		Deliver:        deliver,
	})
	j, _, err := m.Submit("noop", nil, SubmitOptions{Webhook: "https://receiver.test/hook"})
	if err != nil {
		t.Fatal(err)
	}
	driveWebhookWaits(t, clock, j.ID, webhookAttempts-1)
	waitFor(t, "delivery log to fill", func() bool {
		got, _ := m.Get(j.ID)
		return len(got.Deliveries) == webhookAttempts
	})
	got, _ := m.Get(j.ID)
	if got.WebhookOK {
		t.Fatal("WebhookOK set although every delivery failed")
	}
	for i, d := range got.Deliveries {
		if d.Attempt != i+1 || d.OK || d.Status != 503 {
			t.Fatalf("delivery %d: %+v", i, d)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if count != webhookAttempts {
		t.Fatalf("deliverer called %d times, want %d", count, webhookAttempts)
	}
}
