package jobs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/tenant"
)

// FormatVersion is the job store file format version.
const FormatVersion = 1

// Store is the durable job record store. Implementations must be safe
// for concurrent use and must persist synchronously: when Put returns,
// the record survives a crash. The manager is the only writer; reads
// may come from any goroutine (HTTP handlers, webhook deliverers).
type Store interface {
	// Put inserts or replaces the record (keyed by Job.ID).
	Put(Job) error
	// Get returns the record for id.
	Get(id string) (Job, bool)
	// List returns every record, sorted by CreatedAt then ID (oldest
	// first — the recovery enqueue order).
	List() []Job
	// Len returns the number of records.
	Len() int
	// Delete removes the record for id (a no-op when absent). The TTL
	// sweeper is the only caller.
	Delete(id string) error
}

// FileStore is the JSON-on-disk Store: one document holding every job,
// rewritten through internal/atomicfile on each Put. A store opened with
// an empty path is in-memory only.
//
// File format (FormatVersion 1):
//
//	{
//	  "jobs_version": 1,
//	  "jobs": [ { ... Job JSON ... } ]
//	}
//
// Loading rejects unknown versions, duplicate IDs and invalid records.
// The file is written mode 0600: requests embed owner secrets.
type FileStore struct {
	mu   sync.RWMutex
	path string // "" = in-memory only
	jobs map[string]Job
}

// NewStore returns an empty in-memory store (nothing is persisted).
func NewStore() *FileStore {
	return &FileStore{jobs: make(map[string]Job)}
}

// Open loads the job store at path, or returns an empty store bound to
// path when the file does not exist yet. An empty path is NewStore().
func Open(path string) (*FileStore, error) {
	s := NewStore()
	s.path = path
	if path == "" {
		return s, nil
	}
	var doc document
	found, err := atomicfile.ReadJSON(path, &doc)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if !found {
		return s, nil
	}
	if doc.Version != FormatVersion {
		return nil, fmt.Errorf("jobs: %s has format version %d, want %d", path, doc.Version, FormatVersion)
	}
	for _, j := range doc.Jobs {
		// Migration: stores written before multi-tenancy carry no tenant
		// ID; those jobs are adopted by the default tenant so existing
		// queues keep loading and resuming.
		j.TenantID = tenant.Normalize(j.TenantID)
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("jobs: %s: %w", path, err)
		}
		if _, dup := s.jobs[j.ID]; dup {
			return nil, fmt.Errorf("jobs: %s: duplicate job %q", path, j.ID)
		}
		s.jobs[j.ID] = j
	}
	return s, nil
}

// Path returns the backing file path ("" for an in-memory store).
func (s *FileStore) Path() string { return s.path }

// Put inserts or replaces the record and persists the store.
func (s *FileStore) Put(j Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.jobs[j.ID]
	s.jobs[j.ID] = j
	if err := s.persistLocked(); err != nil {
		// Keep memory and disk in agreement on failure.
		if had {
			s.jobs[j.ID] = prev
		} else {
			delete(s.jobs, j.ID)
		}
		return err
	}
	return nil
}

// Get returns the record for id.
func (s *FileStore) Get(id string) (Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every record, oldest first (CreatedAt, then ID).
func (s *FileStore) List() []Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sortedLocked()
}

// sortedLocked returns every record, oldest first. Callers hold a lock.
func (s *FileStore) sortedLocked() []Job {
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Delete removes the record for id and persists the store; deleting an
// absent id is a no-op.
func (s *FileStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.jobs[id]
	if !had {
		return nil
	}
	delete(s.jobs, id)
	if err := s.persistLocked(); err != nil {
		// Keep memory and disk in agreement on failure.
		s.jobs[id] = prev
		return err
	}
	return nil
}

// Len returns the number of records.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.jobs)
}

type document struct {
	Version int   `json:"jobs_version"`
	Jobs    []Job `json:"jobs"`
}

// persistLocked writes the store through atomicfile, mode 0600.
// Callers hold the write lock.
func (s *FileStore) persistLocked() error {
	if s.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(document{Version: FormatVersion, Jobs: s.sortedLocked()}, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(s.path, 0o600, atomicfile.Bytes(append(data, '\n')))
}
