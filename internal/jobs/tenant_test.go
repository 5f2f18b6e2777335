package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/tenant"
)

func TestIdempotencyScopedPerTenant(t *testing.T) {
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		}},
	})
	a, existing, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{TenantID: "tenant-a", IdempotencyKey: "k1"})
	if err != nil || existing {
		t.Fatalf("submit a: %v existing=%v", err, existing)
	}
	if a.TenantID != "tenant-a" {
		t.Fatalf("job tenant = %q, want tenant-a", a.TenantID)
	}
	// Same key, same tenant: dedup.
	a2, existing, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{TenantID: "tenant-a", IdempotencyKey: "k1"})
	if err != nil || !existing || a2.ID != a.ID {
		t.Fatalf("same-tenant resubmit: %v existing=%v id=%s (want %s)", err, existing, a2.ID, a.ID)
	}
	// Same key, different tenant: a fresh job — keys never cross tenants.
	b, existing, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{TenantID: "tenant-b", IdempotencyKey: "k1"})
	if err != nil || existing {
		t.Fatalf("cross-tenant submit: %v existing=%v", err, existing)
	}
	if b.ID == a.ID {
		t.Fatal("tenant-b's idempotency key resolved to tenant-a's job")
	}
}

func TestListFiltersByTenant(t *testing.T) {
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		}},
	})
	ja, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{TenantID: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	jb, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{TenantID: "tenant-b"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, ja.ID, StateSucceeded)
	waitState(t, m, jb.ID, StateSucceeded)

	la := m.List(Filter{Tenant: "tenant-a"})
	if len(la) != 1 || la[0].ID != ja.ID {
		t.Fatalf("List(tenant-a) = %+v, want only %s", la, ja.ID)
	}
	if all := m.List(Filter{}); len(all) != 2 {
		t.Fatalf("List (operator view) = %d jobs, want 2", len(all))
	}
}

func TestSubmitDefaultsTenant(t *testing.T) {
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		}},
	})
	j, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.TenantID != tenant.DefaultID {
		t.Fatalf("tenant-less submit recorded tenant %q, want %q", j.TenantID, tenant.DefaultID)
	}
	// The default-tenant filter sees it.
	if l := m.List(Filter{Tenant: tenant.DefaultID}); len(l) != 1 {
		t.Fatalf("List(default) = %d jobs, want 1", len(l))
	}
}

func TestStoreMigratesTenantlessJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{ID: NewID(), Kind: "protect", TenantID: tenant.DefaultID, State: StateQueued, MaxAttempts: 3}
	if err := s.Put(j); err != nil {
		t.Fatal(err)
	}
	// Strip tenant_id to simulate a pre-multi-tenant store file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.ReplaceAll(string(data), `"tenant_id": "default",`, "")
	if stripped == string(data) {
		t.Fatal("fixture did not contain a tenant_id to strip")
	}
	if err := os.WriteFile(path, []byte(stripped), 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("pre-tenant job store no longer loads: %v", err)
	}
	got, ok := s2.Get(j.ID)
	if !ok || got.TenantID != tenant.DefaultID {
		t.Fatalf("migrated job = %+v, %v; want default tenant", got, ok)
	}
}

// TestActiveJobQuotaConcurrentSubmits races many submissions of one
// tenant under a quota of q while every admitted job blocks: at most q
// are admitted, the rest are refused with ErrQuotaExceeded, another
// tenant is not counted against it, and a replay of an admitted job's
// idempotency key still returns that job.
func TestActiveJobQuotaConcurrentSubmits(t *testing.T) {
	block := make(chan struct{})
	m := newTestManager(t, Config{
		Runner: &fakeRunner{fn: func(ctx context.Context, job Job, progress func(Progress)) (json.RawMessage, error) {
			<-block
			return json.RawMessage(`{}`), nil
		}},
		Workers: 2,
	})
	defer close(block)
	const q, n = 3, 32
	opts := func(i int) SubmitOptions {
		return SubmitOptions{TenantID: "tenant-a", IdempotencyKey: fmt.Sprintf("k%d", i), MaxActiveJobs: q}
	}
	admitted := make([]bool, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := m.Submit("noop", json.RawMessage(`{}`), opts(i))
			switch {
			case err == nil:
				admitted[i] = true
			case !errors.Is(err, ErrQuotaExceeded):
				t.Errorf("submit %d: %v, want nil or ErrQuotaExceeded", i, err)
			}
		}()
	}
	wg.Wait()
	first := -1
	count := 0
	for i, ok := range admitted {
		if ok {
			count++
			first = i
		}
	}
	if count != q {
		t.Fatalf("%d submissions admitted under a quota of %d", count, q)
	}
	if _, existing, err := m.Submit("noop", json.RawMessage(`{}`), opts(first)); err != nil || !existing {
		t.Fatalf("replay at the quota: existing=%v err=%v, want the existing job", existing, err)
	}
	if _, _, err := m.Submit("noop", json.RawMessage(`{}`), SubmitOptions{TenantID: "tenant-b", MaxActiveJobs: q}); err != nil {
		t.Fatalf("another tenant's submit: %v", err)
	}
}
