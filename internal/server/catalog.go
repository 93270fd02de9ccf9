package server

import (
	"sort"
	"sync"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/storage"
)

// catalogShardCount is the catalog's shard count. Sixteen shards keep
// contention negligible well past typical core counts while the
// per-shard overhead (one small allocation server each) stays trivial.
const catalogShardCount = 16

// catalogShard is one lock domain of the catalog: an allocation server
// owning the datasets that hash into this shard. Resolve mutates demand
// counters and lookup statistics inside the allocation package, so it
// takes the write lock; the pure reads (Holds, AppendHolders, Replicas,
// DatasetBytes, Origin, Datasets, ReplicaCount, MaintenanceSweep) share
// an RLock.
type catalogShard struct {
	mu  sync.RWMutex
	srv *allocation.Server
}

// Catalog is the serving plane's view of the allocation servers. The
// allocation package is deliberately single-threaded (the simulator
// owns its own event loop); here every HTTP request may touch the
// catalog concurrently. Datasets are spread across catalogShardCount
// shards by an FNV-1a hash of the dataset ID, so resolves and fetches of
// distinct datasets never contend on a lock — the catalog scales with
// cores instead of serializing the whole delivery plane behind one
// mutex.
type Catalog struct {
	// shards is a slice, not a fixed array of shards: len() of such an
	// array is a by-value use, which the atomiccopy lint flags because
	// each shard's RWMutex carries sync/atomic fields.
	shards []*catalogShard
}

// NewCatalog builds a sharded catalog whose allocation servers share
// dir as their directory.
func NewCatalog(dir allocation.Directory) *Catalog {
	c := &Catalog{shards: make([]*catalogShard, catalogShardCount)}
	for i := range c.shards {
		c.shards[i] = &catalogShard{srv: allocation.NewServer(i, dir)}
	}
	return c
}

// NewCatalogSharded returns NewCatalog(dir), ignoring both counts.
//
// Deprecated: use NewCatalog.
func NewCatalogSharded(_ int, dir allocation.Directory, _ int) (*Catalog, error) {
	return NewCatalog(dir), nil
}

// ShardCount returns the catalog's shard count.
func (c *Catalog) ShardCount() int { return len(c.shards) }

// shard picks a dataset's lock domain by FNV-1a hash. The hash is
// inlined rather than built on hash/fnv so the hot path performs no
// allocation and no interface dispatch.
func (c *Catalog) shard(id storage.DatasetID) *catalogShard {
	h := uint32(2166136261) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619 // FNV prime
	}
	return c.shards[h%catalogShardCount]
}

// RegisterDataset catalogs a dataset with its origin node and size.
func (c *Catalog) RegisterDataset(id storage.DatasetID, origin allocation.NodeID, bytes int64) error {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv.RegisterDataset(id, origin, bytes)
}

// AddReplica records a new replica holder.
func (c *Catalog) AddReplica(id storage.DatasetID, node allocation.NodeID, at time.Duration) error {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv.AddReplica(id, node, at)
}

// RemoveReplica deletes a replica record.
func (c *Catalog) RemoveReplica(id storage.DatasetID, node allocation.NodeID) error {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv.RemoveReplica(id, node)
}

// Resolve picks the best online replica for a requester. It takes the
// shard's write lock: resolution records demand.
func (c *Catalog) Resolve(id storage.DatasetID, requester allocation.NodeID) (allocation.Replica, bool, error) {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv.Resolve(id, requester)
}

// Replicas lists a dataset's replica holders. The error is always nil.
func (c *Catalog) Replicas(id storage.DatasetID) ([]allocation.Replica, error) {
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.srv.Replicas(id), nil
}

// AppendHolders appends the dataset's holder IDs to dst, unsorted (see
// allocation.Server.AppendHolders).
func (c *Catalog) AppendHolders(dst []allocation.NodeID, id storage.DatasetID) []allocation.NodeID {
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.srv.AppendHolders(dst, id)
}

// Holds reports whether node is a recorded holder of the dataset: the
// one record of what a node holds (its volume holds only the bytes).
func (c *Catalog) Holds(id storage.DatasetID, node allocation.NodeID) bool {
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.srv.Holds(id, node)
}

// DatasetBytes returns a dataset's size.
func (c *Catalog) DatasetBytes(id storage.DatasetID) (int64, error) {
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.srv.DatasetBytes(id)
}

// Origin returns a dataset's origin node.
func (c *Catalog) Origin(id storage.DatasetID) (allocation.NodeID, error) {
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.srv.Origin(id)
}

// Datasets lists all catalogued dataset IDs, merged across shards and
// sorted ascending. The error is always nil.
func (c *Catalog) Datasets() ([]storage.DatasetID, error) {
	var out []storage.DatasetID
	for _, s := range c.shards {
		s.mu.RLock()
		out = append(out, s.srv.Datasets()...)
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReplicaCount returns a dataset's replica count.
func (c *Catalog) ReplicaCount(id storage.DatasetID) int {
	s := c.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.srv.ReplicaCount(id)
}

// MaintenanceSweep merges hot-dataset recommendations across every
// shard, sorted by dataset ID. The sweep is read-only (shared lock):
// demand counters are consumed only by AckSweep, so a repairer that dies
// between sweeping and placing drops no work.
func (c *Catalog) MaintenanceSweep() []allocation.HotDataset {
	var out []allocation.HotDataset
	for _, s := range c.shards {
		s.mu.RLock()
		out = append(out, s.srv.MaintenanceSweep()...)
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AckSweep acknowledges handled recommendations, routing each to its
// dataset's shard under the write lock.
func (c *Catalog) AckSweep(hot []allocation.HotDataset) {
	for i := range hot {
		s := c.shard(hot[i].ID)
		s.mu.Lock()
		s.srv.AckSweep(hot[i : i+1])
		s.mu.Unlock()
	}
}

// SetPolicy applies replica-budget and demand-threshold settings to
// every shard's allocation server.
func (c *Catalog) SetPolicy(maxReplicas int, demandThreshold uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.srv.MaxReplicas, s.srv.DemandThreshold = maxReplicas, demandThreshold
		s.mu.Unlock()
	}
}
