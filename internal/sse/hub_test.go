package sse

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestHubSubscribeBroadcastOrder(t *testing.T) {
	h := NewHub()
	defer h.Close()
	a := h.Subscribe("jobs/1", 16)
	b := h.Subscribe("jobs/1", 16)
	other := h.Subscribe("jobs/2", 16)

	for i := 0; i < 5; i++ {
		h.Publish("jobs/1", Event{Type: "progress", Data: []byte(fmt.Sprintf("%d", i))})
	}
	a.Close()
	b.Close()

	for name, sub := range map[string]*Subscription{"a": a, "b": b} {
		var got []string
		for ev := range sub.Events() {
			got = append(got, string(ev.Data))
		}
		if len(got) != 5 {
			t.Fatalf("%s received %d events, want 5", name, len(got))
		}
		for i, d := range got {
			if d != fmt.Sprintf("%d", i) {
				t.Fatalf("%s event %d = %q, out of order", name, i, d)
			}
		}
	}

	select {
	case ev := <-other.Events():
		t.Fatalf("jobs/2 subscriber received foreign event %q", ev.Data)
	default:
	}
}

func TestHubSlowConsumerDropped(t *testing.T) {
	h := NewHub()
	defer h.Close()
	slow := h.Subscribe("t", 2)
	fast := h.Subscribe("t", 16)

	// Nobody drains slow: the third publish overflows its buffer and
	// must drop it rather than block or stall fast.
	for i := 0; i < 5; i++ {
		h.Publish("t", Event{Data: []byte{byte('0' + i)}})
	}

	// The range ends only because the hub closed slow's channel: the
	// subscriber never called Close.
	var slowGot int
	for range slow.Events() {
		slowGot++
	}
	if slowGot != 2 {
		t.Fatalf("slow consumer read %d buffered events, want 2", slowGot)
	}
	h.mu.Lock()
	n := len(h.topics["t"])
	h.mu.Unlock()
	if n != 1 {
		t.Fatalf("topic has %d subscribers after drop, want 1 (the fast one)", n)
	}

	fast.Close()
	var fastGot int
	for range fast.Events() {
		fastGot++
	}
	if fastGot != 5 {
		t.Fatalf("fast consumer read %d events, want all 5", fastGot)
	}
}

// TestHubConcurrency exercises publish/subscribe/close races; run under
// -race it is the hub's memory-safety gate. Some subscribers read
// slowly on purpose so the drop path races with Close.
func TestHubConcurrency(t *testing.T) {
	h := NewHub()
	const topics = 4
	var pubs, subs sync.WaitGroup

	for s := 0; s < 16; s++ {
		subs.Add(1)
		go func(s int) {
			defer subs.Done()
			sub := h.Subscribe(fmt.Sprintf("t%d", s%topics), 1+s%3)
			n := 0
			for range sub.Events() {
				if n++; n >= 10+s {
					sub.Close()
				}
			}
		}(s)
	}
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < 200; i++ {
				h.Publish(fmt.Sprintf("t%d", i%topics), Event{Type: "e", Data: []byte("x")})
			}
		}(p)
	}
	pubs.Wait()
	// Closing the hub ends every remaining subscriber's range loop —
	// racing deliberately with subscriber-side Close and drop.
	h.Close()
	subs.Wait()

	// Post-close operations are inert.
	h.Publish("t0", Event{Data: []byte("late")})
	late := h.Subscribe("t0", 1)
	if _, ok := <-late.Events(); ok {
		t.Fatal("subscription on a closed hub yielded an event")
	}
}

func TestWriteEventFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvent(&buf, Event{Type: "state", Data: []byte(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "event: state\ndata: {\"a\":1}\n\n"; got != want {
		t.Fatalf("framing = %q, want %q", got, want)
	}

	buf.Reset()
	if err := WriteEvent(&buf, Event{Data: []byte("l1\nl2")}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "data: l1\ndata: l2\n\n"; got != want {
		t.Fatalf("multiline framing = %q, want %q", got, want)
	}

	buf.Reset()
	if err := Comment(&buf, "hb"); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), ": hb\n\n"; got != want {
		t.Fatalf("comment = %q, want %q", got, want)
	}
}
