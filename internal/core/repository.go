package core

import (
	"fmt"
	"sort"
	"time"

	"scdn/internal/storage"
)

// The researcher-contributed storage repositories of Section V-A: each
// repository is a shared folder partitioned into a CDN-managed replica
// volume (read-only to the owner) and the owner's general-purpose user
// volume, with quotas, LRU eviction in the user partition, and usage
// statistics that the CDN client reports to allocation servers.

// Object is a stored dataset copy.
type Object struct {
	Dataset  storage.DatasetID
	Bytes    int64
	StoredAt time.Duration
	lastUsed time.Duration
}

// Stats summarizes a repository for allocation-server reporting.
type Stats struct {
	CapacityBytes    int64
	ReplicaUsedBytes int64
	UserUsedBytes    int64
	ReplicaObjects   int
	UserObjects      int
	Evictions        uint64
	ReadHits         uint64
	ReadMisses       uint64
}

// Free returns the unused capacity.
func (s Stats) Free() int64 { return s.CapacityBytes - s.ReplicaUsedBytes - s.UserUsedBytes }

// Repository is one contributed storage folder. Not safe for concurrent
// use (the simulation is single-threaded).
type Repository struct {
	Owner    int64 // owning user
	SiteID   int   // network-model site
	capacity int64
	// replicaReserve caps the CDN-managed partition (Section V-A: the
	// folder "is partitioned for transparent usage as a replica and also
	// as general storage for the user").
	replicaReserve int64

	replicas map[storage.DatasetID]*Object
	user     map[storage.DatasetID]*Object
	stats    Stats
}

// NewRepository creates a repository. replicaReserve bounds the CDN
// partition and must not exceed capacity.
func NewRepository(owner int64, siteID int, capacity, replicaReserve int64) (*Repository, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: non-positive capacity %d", capacity)
	}
	if replicaReserve < 0 || replicaReserve > capacity {
		return nil, fmt.Errorf("core: replica reserve %d outside [0, %d]", replicaReserve, capacity)
	}
	return &Repository{
		Owner:          owner,
		SiteID:         siteID,
		capacity:       capacity,
		replicaReserve: replicaReserve,
		replicas:       make(map[storage.DatasetID]*Object),
		user:           make(map[storage.DatasetID]*Object),
		stats:          Stats{CapacityBytes: capacity},
	}, nil
}

// Capacity returns total capacity in bytes.
func (r *Repository) Capacity() int64 { return r.capacity }

// ReplicaReserve returns the CDN partition bound.
func (r *Repository) ReplicaReserve() int64 { return r.replicaReserve }

// Stats returns a snapshot of usage statistics.
func (r *Repository) Stats() Stats { return r.stats }

// StoreReplica places a CDN-managed object in the replica partition. It
// fails when the partition bound or total capacity would be exceeded —
// the CDN, not the owner, decides evictions there.
func (r *Repository) StoreReplica(id storage.DatasetID, bytes int64, now time.Duration) error {
	if bytes <= 0 {
		return fmt.Errorf("core: non-positive object size %d", bytes)
	}
	if _, dup := r.replicas[id]; dup {
		return fmt.Errorf("core: replica %q already present", id)
	}
	if r.stats.ReplicaUsedBytes+bytes > r.replicaReserve {
		return fmt.Errorf("core: replica partition full (%d + %d > %d)",
			r.stats.ReplicaUsedBytes, bytes, r.replicaReserve)
	}
	if r.stats.ReplicaUsedBytes+r.stats.UserUsedBytes+bytes > r.capacity {
		return fmt.Errorf("core: repository full")
	}
	r.replicas[id] = &Object{Dataset: id, Bytes: bytes, StoredAt: now, lastUsed: now}
	r.stats.ReplicaUsedBytes += bytes
	r.stats.ReplicaObjects++
	return nil
}

// DropReplica removes a CDN-managed object (allocation-server initiated).
func (r *Repository) DropReplica(id storage.DatasetID) error {
	obj, ok := r.replicas[id]
	if !ok {
		return fmt.Errorf("core: replica %q not present", id)
	}
	delete(r.replicas, id)
	r.stats.ReplicaUsedBytes -= obj.Bytes
	r.stats.ReplicaObjects--
	return nil
}

// HasReplica reports whether the replica partition holds the dataset.
func (r *Repository) HasReplica(id storage.DatasetID) bool {
	_, ok := r.replicas[id]
	return ok
}

// ReplicaIDs returns the replica partition's datasets sorted ascending.
func (r *Repository) ReplicaIDs() []storage.DatasetID {
	out := make([]storage.DatasetID, 0, len(r.replicas))
	for id := range r.replicas {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StoreUser places an object in the owner's partition, evicting
// least-recently-used user objects if needed to fit within the space not
// reserved for replicas. It fails if the object can never fit.
func (r *Repository) StoreUser(id storage.DatasetID, bytes int64, now time.Duration) error {
	if bytes <= 0 {
		return fmt.Errorf("core: non-positive object size %d", bytes)
	}
	userBudget := r.capacity - r.stats.ReplicaUsedBytes
	if bytes > userBudget {
		return fmt.Errorf("core: object %q (%d bytes) exceeds user budget %d", id, bytes, userBudget)
	}
	if old, dup := r.user[id]; dup {
		// Re-store refreshes recency and size.
		r.stats.UserUsedBytes -= old.Bytes
		r.stats.UserObjects--
		delete(r.user, id)
	}
	for r.stats.UserUsedBytes+bytes > userBudget {
		victim := r.lruUserVictim()
		if victim == "" {
			return fmt.Errorf("core: cannot free space for %q", id)
		}
		r.evictUser(victim)
	}
	r.user[id] = &Object{Dataset: id, Bytes: bytes, StoredAt: now, lastUsed: now}
	r.stats.UserUsedBytes += bytes
	r.stats.UserObjects++
	return nil
}

// lruUserVictim returns the least-recently-used user object (ties by ID).
func (r *Repository) lruUserVictim() storage.DatasetID {
	var victim storage.DatasetID
	var oldest time.Duration = -1
	for id, obj := range r.user {
		if oldest < 0 || obj.lastUsed < oldest || (obj.lastUsed == oldest && id < victim) {
			victim, oldest = id, obj.lastUsed
		}
	}
	return victim
}

func (r *Repository) evictUser(id storage.DatasetID) {
	obj := r.user[id]
	delete(r.user, id)
	r.stats.UserUsedBytes -= obj.Bytes
	r.stats.UserObjects--
	r.stats.Evictions++
}

// Read looks a dataset up in either partition, refreshing recency, and
// reports whether it was found locally (a cache hit in CDN terms).
func (r *Repository) Read(id storage.DatasetID, now time.Duration) (*Object, bool) {
	if obj, ok := r.replicas[id]; ok {
		obj.lastUsed = now
		r.stats.ReadHits++
		return obj, true
	}
	if obj, ok := r.user[id]; ok {
		obj.lastUsed = now
		r.stats.ReadHits++
		return obj, true
	}
	r.stats.ReadMisses++
	return nil, false
}

// HasLocal reports whether the dataset is in either partition without
// touching statistics or recency.
func (r *Repository) HasLocal(id storage.DatasetID) bool {
	if _, ok := r.replicas[id]; ok {
		return true
	}
	_, ok := r.user[id]
	return ok
}

// UserIDs returns the user partition's datasets sorted ascending.
func (r *Repository) UserIDs() []storage.DatasetID {
	out := make([]storage.DatasetID, 0, len(r.user))
	for id := range r.user {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
