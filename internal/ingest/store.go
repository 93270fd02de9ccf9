package ingest

import (
	"fmt"
	"sort"
	"sync"

	"scdn/internal/storage"
)

// Store is the cluster's shared manifest index: dataset → manifest. In
// the paper's architecture this state lives beside the allocation
// catalog (every allocation server must be able to hand a client the
// content address before any replica holder is contacted); here one
// Store is shared by every node of a local cluster the same way the
// catalog is. Safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	m  map[storage.DatasetID]*Manifest
}

// NewStore creates an empty manifest store.
func NewStore() *Store {
	return &Store{m: make(map[storage.DatasetID]*Manifest)}
}

// Put records a dataset's manifest. Re-putting an identical manifest is
// a no-op; a manifest that disagrees with the recorded one, or whose
// digest is not the roll-up of its block digests, is an error — a
// dataset's content address never silently changes.
func (s *Store) Put(m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := m.checkDigest(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[m.Dataset]; ok {
		if old.Digest != m.Digest || old.Size != m.Size {
			return fmt.Errorf("ingest: dataset %q already has a different manifest", m.Dataset)
		}
		return nil
	}
	s.m[m.Dataset] = m
	return nil
}

// Get returns a dataset's manifest, or ok == false when none is
// recorded (pre-ingest datasets have no manifest until one is
// registered for them).
func (s *Store) Get(id storage.DatasetID) (*Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.m[id]
	return m, ok
}

// Delete removes a dataset's manifest (unpublish path; no-op when
// absent).
func (s *Store) Delete(id storage.DatasetID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
}

// Len returns how many manifests are recorded.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// IDs returns the recorded dataset IDs sorted ascending.
func (s *Store) IDs() []storage.DatasetID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]storage.DatasetID, 0, len(s.m))
	for id := range s.m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
