package ingest

import (
	"fmt"
	"sync"

	"scdn/internal/storage"
)

// Store is the cluster's shared manifest index: dataset → manifest. In
// the paper's architecture this state lives beside the allocation
// catalog (every allocation server must be able to hand a client the
// content address before any replica holder is contacted); here one
// Store is shared by every node of a local cluster the same way the
// catalog is. A dataset's entry is either a manifest (Put) or a
// derivation (Derive) that yields one on first use. Safe for
// concurrent use.
type Store struct {
	mu sync.RWMutex
	m  map[storage.DatasetID]*entry
}

// entry is one dataset's record. derive is nil for a manifest that was
// Put; otherwise man is set by the first get, under once.
type entry struct {
	once   sync.Once
	derive func() (*Manifest, error)
	man    *Manifest
}

// get returns the entry's manifest, deriving it on the first call. A
// derivation that fails, or yields a manifest for another dataset or an
// opaque one, leaves the entry without a manifest.
func (e *entry) get(id storage.DatasetID) (*Manifest, bool) {
	if e.derive != nil {
		e.once.Do(func() {
			if m, err := e.derive(); err == nil && m.Dataset == id && !m.Opaque {
				e.man = m
			}
		})
	}
	return e.man, e.man != nil
}

// NewStore creates an empty manifest store.
func NewStore() *Store {
	return &Store{m: make(map[storage.DatasetID]*entry)}
}

// Put records a dataset's manifest. Re-putting an identical manifest is
// a no-op; a manifest that disagrees with the recorded one, or whose
// digest is not the roll-up of its block digests, is an error — a
// dataset's content address never silently changes. Over a derived
// entry, Put derives the recorded manifest (outside the store's lock)
// and then compares.
func (s *Store) Put(m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := m.checkDigest(); err != nil {
		return err
	}
	s.mu.Lock()
	e, ok := s.m[m.Dataset]
	if !ok {
		s.m[m.Dataset] = &entry{man: m}
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if old, ok := e.get(m.Dataset); !ok || old.Digest != m.Digest || old.Size != m.Size {
		return fmt.Errorf("ingest: dataset %q already has a different manifest", m.Dataset)
	}
	return nil
}

// Derive records that dataset id's manifest is derive's result, without
// running it: the first Get runs derive once, however many callers race
// to it, and every later Get returns the cached manifest. A derived
// dataset is regenerable, never opaque. Deriving for an ID that already
// has an entry is an error.
func (s *Store) Derive(id storage.DatasetID, derive func() (*Manifest, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; ok {
		return fmt.Errorf("ingest: dataset %q already has a manifest", id)
	}
	s.m[id] = &entry{derive: derive}
	return nil
}

// Get returns a dataset's manifest, deriving it if this is the first
// use of a derived entry, or ok == false when none is recorded.
func (s *Store) Get(id storage.DatasetID) (*Manifest, bool) {
	s.mu.RLock()
	e, ok := s.m[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.get(id)
}

// Opaque returns the dataset's manifest when it is an opaque upload's —
// bytes that exist only as real files — and ok == false otherwise. It
// never derives: a derived entry is not opaque.
func (s *Store) Opaque(id storage.DatasetID) (*Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.m[id]; ok && e.derive == nil && e.man.Opaque {
		return e.man, true
	}
	return nil, false
}

// Delete removes a dataset's entry, manifest or derivation (unpublish
// path; no-op when absent).
func (s *Store) Delete(id storage.DatasetID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
}
