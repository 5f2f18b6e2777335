package jobs

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"
)

// Webhook wire headers.
const (
	// SignatureHeader carries "sha256=<hex>" — the HMAC-SHA256 of the
	// request body under the job's master secret.
	SignatureHeader = "X-Medshield-Signature"
	// JobIDHeader carries the job ID; DeliveryHeader the 1-based
	// delivery attempt number.
	JobIDHeader    = "X-Medshield-Job-Id"
	DeliveryHeader = "X-Medshield-Delivery"
	// EventHeader names the payload type ("job.completed").
	EventHeader = "X-Medshield-Event"
)

// Sign computes the webhook signature header value for a payload:
// "sha256=" + hex(HMAC-SHA256(secret, payload)).
func Sign(secret string, payload []byte) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(payload)
	return "sha256=" + hex.EncodeToString(mac.Sum(nil))
}

// VerifySignature checks a webhook body against its SignatureHeader
// value in constant time — the receiver-side recipe.
func VerifySignature(secret string, payload []byte, header string) bool {
	return hmac.Equal([]byte(Sign(secret, payload)), []byte(header))
}

// webhookAttempts bounds the deliveries of one completion webhook.
const webhookAttempts = 5

// DeliverFunc executes one webhook POST and returns the receiver's
// HTTP status. Injectable for tests; production uses httpDeliver.
type DeliverFunc func(url string, headers http.Header, body []byte) (status int, err error)

// webhookClient sends the deliveries, each bounded by 10s.
var webhookClient = &http.Client{Timeout: 10 * time.Second}

// httpDeliver is the production DeliverFunc: a plain POST.
func httpDeliver(url string, headers http.Header, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header = headers.Clone()
	resp, err := webhookClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// deliverWebhook posts the terminal job's snapshot to its webhook URL,
// up to webhookAttempts times, spaced by webhookSchedule. Every attempt is
// appended to the job's delivery log and persisted, so an operator can
// audit exactly what the receiver was told and when. Runs on its own
// goroutine (m.side); shutdown releases the backoff waits.
func (m *Manager) deliverWebhook(id string) {
	defer m.side.Done()

	m.mu.Lock()
	j, ok := m.store.Get(id)
	m.mu.Unlock()
	if !ok || j.Webhook == "" {
		return
	}
	payload, err := json.Marshal(SnapshotOf(j))
	if err != nil {
		m.logJob(slog.LevelError, "webhook payload not marshaled", j, slog.Any("err", err))
		return
	}
	secret := m.cfg.Runner.Secret(j)
	headers := http.Header{}
	headers.Set("Content-Type", "application/json")
	headers.Set(EventHeader, "job.completed")
	headers.Set(JobIDHeader, j.ID)
	if secret != "" {
		headers.Set(SignatureHeader, Sign(secret, payload))
	}

	for attempt := 1; attempt <= webhookAttempts; attempt++ {
		headers.Set(DeliveryHeader, fmt.Sprintf("%d", attempt))
		status, err := m.cfg.Deliver(j.Webhook, headers, payload)
		d := Delivery{
			Attempt: attempt,
			At:      m.cfg.Clock.Now().UTC(),
			Status:  status,
			OK:      err == nil && status >= 200 && status < 300,
		}
		if err != nil {
			d.Error = err.Error()
		} else if !d.OK {
			d.Error = fmt.Sprintf("receiver returned status %d", status)
		}
		m.recordDelivery(id, d)
		if d.OK {
			m.logJob(slog.LevelInfo, "webhook delivered", j, slog.Int("attempt", attempt))
			return
		}
		m.logJob(slog.LevelWarn, "webhook attempt failed", j, slog.Int("attempt", attempt), slog.String("err", d.Error))
		if attempt == webhookAttempts {
			return
		}
		select {
		case <-m.cfg.Clock.After(webhookSchedule.delay(id, attempt)):
		case <-m.stop:
			return
		}
	}
}

// recordDelivery appends one delivery attempt to the job's log and
// persists it.
func (m *Manager) recordDelivery(id string, d Delivery) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return
	}
	j.Deliveries = append(j.Deliveries, d)
	if d.OK {
		j.WebhookOK = true
	}
	if err := m.store.Put(j); err != nil {
		m.logJob(slog.LevelError, "webhook delivery log not persisted", j, slog.Any("err", err))
	}
	m.publish(j)
}
