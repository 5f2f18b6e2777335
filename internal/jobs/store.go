package jobs

import (
	"cmp"
	"strings"

	"repro/internal/recstore"
	"repro/internal/tenant"
)

// FormatVersion is the job store file format version.
const FormatVersion = 1

// Store is the durable job record store, an internal/recstore store
// keyed by Job.ID: one document holding every job, rewritten on each
// Put, so when Put returns the record survives a crash. A store opened
// with an empty path is in-memory only. The manager is the only writer;
// reads may come from any goroutine (HTTP handlers, webhook deliverers).
// List is oldest first (CreatedAt, then ID) — the recovery enqueue
// order.
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
type Store struct {
	*recstore.Store[Job, document]
}

type document struct {
	Version int   `json:"jobs_version"`
	Jobs    []Job `json:"jobs"`
}

var format = recstore.Format[Job, document]{
	Name:    "jobs",
	Version: FormatVersion,
	Key:     func(j Job) string { return j.ID },
	Compare: func(a, b Job) int { return cmp.Or(a.CreatedAt.Compare(b.CreatedAt), strings.Compare(a.ID, b.ID)) },
	Check: func(j Job) (Job, error) {
		// Migration: stores written before multi-tenancy carry no tenant
		// ID; those jobs are adopted by the default tenant so existing
		// queues keep loading and resuming.
		j.TenantID = tenant.Normalize(j.TenantID)
		return j, j.Validate()
	},
	Wrap:   func(jobs []Job) document { return document{Version: FormatVersion, Jobs: jobs} },
	Unwrap: func(d document) (int, []Job) { return d.Version, d.Jobs },
}

// NewStore returns an empty in-memory store (nothing is persisted).
func NewStore() *Store { return &Store{recstore.New(&format)} }

// Open loads the job store at path, or returns an empty store bound to
// path when the file does not exist yet. An empty path is NewStore().
func Open(path string) (*Store, error) {
	s, err := recstore.Open(&format, path)
	if err != nil {
		return nil, err
	}
	return &Store{s}, nil
}

// Delete removes the record for id and persists the store; deleting an
// absent id is a no-op. The TTL sweeper is the only caller.
func (s *Store) Delete(id string) error {
	_, err := s.Store.Delete(id)
	return err
}
