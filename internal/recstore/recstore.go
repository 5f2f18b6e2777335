// Package recstore is the one keyed-record store behind the files the
// owner keeps: the recipient registry, the job store and the tenant
// store. Each declares its file as a Format and keeps only its domain
// rules on top of the Store.
//
// A Store is a map behind an RWMutex, safe for concurrent use. Every
// mutation persists synchronously: when it returns nil, the whole
// document (json.MarshalIndent plus a newline, records in the format's
// order) has landed through internal/atomicfile with mode 0600. When
// the write fails, every record the mutation touched is restored, so
// memory and disk agree. A store with an empty path is in-memory only.
package recstore

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/atomicfile"
)

// Format describes one store file; every field is required.
type Format[R, D any] struct {
	Name    string             // error prefix: "registry", "jobs", "tenant"
	Version int                // the format version Open accepts
	Key     func(R) string     // the record's unique key
	Compare func(a, b R) int   // record order in List and in the file
	Check   func(R) (R, error) // validates and normalises; runs on load and on every put
	// Wrap builds the document for the sorted records, stamping Version;
	// Unwrap returns a loaded document's version and records.
	Wrap   func([]R) D
	Unwrap func(D) (version int, recs []R)
}

// Store is a keyed-record store with one Format.
type Store[R, D any] struct {
	f    *Format[R, D]
	path string // "" = in-memory only
	mu   sync.RWMutex
	recs map[string]R
	undo []undo[R] // the running Update's writes, reused under mu
}

// undo is one record's state before a transaction's write to it.
type undo[R any] struct {
	key  string
	prev R
	had  bool
}

// New returns an empty in-memory store.
func New[R, D any](f *Format[R, D]) *Store[R, D] {
	return &Store[R, D]{f: f, recs: make(map[string]R)}
}

// Open loads the store at path, or returns an empty store bound to path
// when the file does not exist yet. An empty path is New. Loading
// refuses unknown fields, trailing data, another version, a record
// Check rejects and a duplicate key: a half-understood file must not
// drive the service.
func Open[R, D any](f *Format[R, D], path string) (*Store[R, D], error) {
	s := New(f)
	s.path = path
	if path == "" {
		return s, nil
	}
	var doc D
	found, err := atomicfile.ReadJSON(path, &doc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name, err)
	}
	if !found {
		return s, nil
	}
	version, recs := f.Unwrap(doc)
	if version != f.Version {
		return nil, fmt.Errorf("%s: %s has format version %d, want %d", f.Name, path, version, f.Version)
	}
	for _, r := range recs {
		r, err := f.Check(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", f.Name, path, err)
		}
		key := f.Key(r)
		if _, dup := s.recs[key]; dup {
			return nil, fmt.Errorf("%s: %s: duplicate record %q", f.Name, path, key)
		}
		s.recs[key] = r
	}
	return s, nil
}

// Path returns the backing file path ("" for an in-memory store).
func (s *Store[R, D]) Path() string { return s.path }

// Len returns the number of records.
func (s *Store[R, D]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Get returns the record under key.
func (s *Store[R, D]) Get(key string) (R, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.recs[key]
	return r, ok
}

// List returns every record in the format's order.
func (s *Store[R, D]) List() []R {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sortedLocked()
}

// Range calls fn on every record, in no order, under the read lock; it
// copies and sorts nothing. fn must not mutate the store.
func (s *Store[R, D]) Range(fn func(R)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.recs {
		fn(r)
	}
}

// Put checks and inserts or replaces one record.
func (s *Store[R, D]) Put(r R) error {
	return s.Update(func(tx *Tx[R, D]) error { return tx.Put(r) })
}

// Delete removes the record under key, reporting whether it existed.
// Deleting an absent key writes nothing.
func (s *Store[R, D]) Delete(key string) (had bool, err error) {
	err = s.Update(func(tx *Tx[R, D]) error {
		had = tx.Delete(key)
		return nil
	})
	return had && err == nil, err
}

// Update runs fn as one transaction under the write lock. When fn
// changed anything and returned nil, the store persists once. When fn
// returns an error or the persist fails, every record fn touched is
// restored, newest write first, and the error is returned.
func (s *Store[R, D]) Update(fn func(tx *Tx[R, D]) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := fn((*Tx[R, D])(s))
	if err == nil && len(s.undo) > 0 && s.path != "" {
		err = s.persistLocked()
	}
	for i := len(s.undo) - 1; err != nil && i >= 0; i-- {
		if u := s.undo[i]; u.had {
			s.recs[u.key] = u.prev
		} else {
			delete(s.recs, u.key)
		}
	}
	clear(s.undo) // keep the capacity, drop the references
	s.undo = s.undo[:0]
	return err
}

func (s *Store[R, D]) sortedLocked() []R {
	out := make([]R, 0, len(s.recs))
	for _, r := range s.recs {
		out = append(out, r)
	}
	slices.SortFunc(out, s.f.Compare)
	return out
}

// persistLocked writes the whole document, mode 0600: the files carry
// owner secrets, token hashes and plans.
func (s *Store[R, D]) persistLocked() error {
	data, err := json.MarshalIndent(s.f.Wrap(s.sortedLocked()), "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(s.path, 0o600, atomicfile.Bytes(append(data, '\n')))
}

// Tx is the store as an Update transaction sees it: no locking, and
// every write logged for the rollback.
type Tx[R, D any] Store[R, D]

// Get returns the record under key, as the transaction has left it.
func (tx *Tx[R, D]) Get(key string) (R, bool) {
	r, ok := tx.recs[key]
	return r, ok
}

// Put checks r and inserts or replaces it in its normalised form.
func (tx *Tx[R, D]) Put(r R) error {
	r, err := tx.f.Check(r)
	if err != nil {
		return err
	}
	key := tx.f.Key(r)
	prev, had := tx.recs[key]
	tx.undo = append(tx.undo, undo[R]{key, prev, had})
	tx.recs[key] = r
	return nil
}

// Delete removes the record under key, reporting whether it existed.
func (tx *Tx[R, D]) Delete(key string) bool {
	prev, had := tx.recs[key]
	if had {
		tx.undo = append(tx.undo, undo[R]{key, prev, had})
		delete(tx.recs, key)
	}
	return had
}
