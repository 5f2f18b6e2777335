// Package sse is the event fan-out substrate of the async job layer: a
// topic-based publish/subscribe hub plus the text/event-stream framing
// helpers the HTTP layer writes with. The hub carries per-job progress
// and state-transition events from the job workers to any number of
// concurrently connected SSE clients.
//
// Delivery semantics are "live tail", not a durable log: a subscriber
// receives events published after it subscribed, in publish order per
// topic. Publishing never blocks — a subscriber whose buffer is full is
// dropped (its channel closed) rather than allowed to stall the
// publisher, because one stuck TCP connection must not back-pressure
// the worker pool. Clients that need a consistent view re-read the job
// resource after the stream ends.
package sse

import (
	"fmt"
	"io"
	"sync"
)

// Event is one published message: a type tag (the SSE "event:" field)
// and a pre-encoded payload (the "data:" field, usually one JSON
// document on a single line).
type Event struct {
	Type string
	Data []byte
}

// Hub routes events from publishers to topic subscribers. The zero
// value is not usable; construct with NewHub. All methods are safe for
// concurrent use.
type Hub struct {
	mu     sync.Mutex
	topics map[string]map[*Subscription]struct{}
	closed bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{topics: make(map[string]map[*Subscription]struct{})}
}

// Subscribe registers a new subscription on topic with the given
// channel buffer (minimum 1). The caller must drain Events() promptly;
// a subscriber that falls buf events behind the publisher is dropped.
// Subscribing on a closed hub returns an already-closed subscription.
func (h *Hub) Subscribe(topic string, buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{hub: h, topic: topic, ch: make(chan Event, buf)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(sub.ch)
		sub.done = true
		return sub
	}
	set := h.topics[topic]
	if set == nil {
		set = make(map[*Subscription]struct{})
		h.topics[topic] = set
	}
	set[sub] = struct{}{}
	return sub
}

// Publish delivers ev to every current subscriber of topic without
// blocking. Subscribers whose buffers are full are unsubscribed and
// their channels closed (the slow-consumer drop); they observe the
// closure as end-of-stream.
func (h *Hub) Publish(topic string, ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for sub := range h.topics[topic] {
		select {
		case sub.ch <- ev:
		default:
			h.removeLocked(sub)
		}
	}
}

// Close shuts the hub down: every subscription's channel is closed and
// further Publish/Subscribe calls are no-ops.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, set := range h.topics {
		for sub := range set {
			if !sub.done {
				sub.done = true
				close(sub.ch)
			}
		}
	}
	h.topics = make(map[string]map[*Subscription]struct{})
}

// removeLocked detaches sub and closes its channel. Callers hold h.mu.
func (h *Hub) removeLocked(sub *Subscription) {
	if sub.done {
		return
	}
	sub.done = true
	close(sub.ch)
	set := h.topics[sub.topic]
	delete(set, sub)
	if len(set) == 0 {
		delete(h.topics, sub.topic)
	}
}

// Subscription is one subscriber's handle on a topic.
type Subscription struct {
	hub   *Hub
	topic string
	ch    chan Event
	// done is guarded by hub.mu.
	done bool
}

// Events is the receive channel. It is closed when the subscription
// ends: Close was called, the hub shut down, or the subscriber was
// dropped for falling behind.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Close unsubscribes. Pending buffered events remain readable until the
// (now closed) channel drains. Close is idempotent.
func (s *Subscription) Close() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.hub.removeLocked(s)
}

// ContentType is the SSE response media type.
const ContentType = "text/event-stream"

// WriteEvent writes one event in text/event-stream framing: an
// optional "event:" line, one "data:" line per newline-separated
// payload chunk, and the blank-line terminator.
func WriteEvent(w io.Writer, ev Event) error {
	if ev.Type != "" {
		if _, err := fmt.Fprintf(w, "event: %s\n", ev.Type); err != nil {
			return err
		}
	}
	data := ev.Data
	if len(data) == 0 {
		data = []byte{}
	}
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if _, err := fmt.Fprintf(w, "data: %s\n", data[start:i]); err != nil {
				return err
			}
			start = i + 1
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Comment writes an SSE comment line (":text") — the conventional
// keep-alive heartbeat, ignored by EventSource clients.
func Comment(w io.Writer, text string) error {
	_, err := fmt.Fprintf(w, ": %s\n\n", text)
	return err
}
