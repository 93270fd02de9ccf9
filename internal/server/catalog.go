package server

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/storage"
)

// catalogShardCount is the catalog's shard count. Sixteen shards keep
// contention negligible well past typical core counts while the
// per-shard overhead (one lock and one map each) stays trivial.
const catalogShardCount = 16

// Replica is one placed copy of a dataset: its holder, and the
// holder's site when the copy was recorded.
type Replica struct {
	Node storage.NodeID
	Site int
}

// HotDataset is a maintenance recommendation: a dataset whose demand
// since the last acknowledged sweep reached the demand threshold and
// which still has replica budget.
type HotDataset struct {
	ID       storage.DatasetID
	Accesses uint64
	Replicas int
}

// record is one dataset's catalog entry. origin and bytes never
// change; holders, sorted by node, change under the shard's write
// lock; demand is counted under its read lock.
type record struct {
	origin  storage.NodeID
	bytes   int64
	holders []Replica
	demand  atomic.Uint64
}

// noRecord stands in for an unknown dataset: no bytes and no holders.
var noRecord = &record{}

// find returns node's position in the holders and whether it is one.
func (r *record) find(node storage.NodeID) (int, bool) {
	return slices.BinarySearchFunc(r.holders, node, func(h Replica, n storage.NodeID) int {
		return cmp.Compare(h.Node, n)
	})
}

// catalogShard is one lock domain: the records of the datasets whose
// IDs hash into it.
type catalogShard struct {
	mu      sync.RWMutex
	records map[storage.DatasetID]*record
}

// Catalog is the live plane's allocation server (PAPER.md §V-B): the
// one record of which node holds a dataset, which resolves a requester
// to the nearest online holder and counts demand. Every request may
// touch it, so datasets are spread across catalogShardCount shards by
// an FNV-1a hash of their ID: requests for distinct datasets never
// contend on a lock.
type Catalog struct {
	dir *Registry
	// shards is a slice, not a fixed array of shards: len() of such an
	// array is a by-value use, which the atomiccopy lint flags because
	// each shard's RWMutex carries sync/atomic fields.
	shards []*catalogShard
	// SetPolicy's replica budget and demand threshold.
	maxReplicas     atomic.Int64
	demandThreshold atomic.Uint64
}

// NewCatalog builds an empty catalog over the registry dir.
func NewCatalog(dir *Registry) *Catalog {
	c := &Catalog{dir: dir, shards: make([]*catalogShard, catalogShardCount)}
	for i := range c.shards {
		c.shards[i] = &catalogShard{records: make(map[storage.DatasetID]*record)}
	}
	c.SetPolicy(5, 10)
	return c
}

// NewCatalogSharded returns NewCatalog(dir), ignoring both counts.
//
// Deprecated: use NewCatalog.
func NewCatalogSharded(_ int, dir *Registry, _ int) (*Catalog, error) {
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

// read read-locks the dataset's shard and returns it, for the caller
// to unlock, with the dataset's record: noRecord if it is unknown.
func (c *Catalog) read(id storage.DatasetID) (*catalogShard, *record) {
	s := c.shard(id)
	s.mu.RLock()
	if r, ok := s.records[id]; ok {
		return s, r
	}
	return s, noRecord
}

// known returns the not-found error for noRecord, else nil.
func known(r *record, id storage.DatasetID) error {
	if r != noRecord {
		return nil
	}
	return errUnknownDataset(id)
}

func errUnknownDataset(id storage.DatasetID) error {
	return fmt.Errorf("server: unknown dataset %q", id)
}

// RegisterDataset catalogs a dataset with its origin node and size. The
// origin always holds a copy (the owner's own repository).
func (c *Catalog) RegisterDataset(id storage.DatasetID, origin storage.NodeID, bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("server: non-positive dataset size %d", bytes)
	}
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.records[id]; dup {
		return fmt.Errorf("server: dataset %q already registered", id)
	}
	m, ok := c.dir.snapshot()[origin]
	if !ok {
		return fmt.Errorf("server: origin node %d has no site", origin)
	}
	s.records[id] = &record{origin: origin, bytes: bytes, holders: []Replica{{Node: origin, Site: m.Site}}}
	return nil
}

// AddReplica records a new replica holder.
func (c *Catalog) AddReplica(id storage.DatasetID, node storage.NodeID) error {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[id]
	if !ok {
		return errUnknownDataset(id)
	}
	i, held := r.find(node)
	m, ok := c.dir.snapshot()[node]
	switch {
	case held:
		return fmt.Errorf("server: node %d already holds %q", node, id)
	case !ok:
		return fmt.Errorf("server: node %d has no site", node)
	}
	r.holders = slices.Insert(r.holders, i, Replica{Node: node, Site: m.Site})
	return nil
}

// RemoveReplica deletes a replica record. Removing the origin's copy is
// refused: the owner always keeps their data.
func (c *Catalog) RemoveReplica(id storage.DatasetID, node storage.NodeID) error {
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[id]
	if !ok {
		return errUnknownDataset(id)
	}
	i, held := r.find(node)
	switch {
	case node == r.origin:
		return fmt.Errorf("server: refusing to remove origin copy of %q", id)
	case !held:
		return fmt.Errorf("server: node %d does not hold %q", node, id)
	}
	r.holders = slices.Delete(r.holders, i, i+1)
	return nil
}

// dropHolder removes node's replica records but its origin copies, one
// pass per shard under its write lock.
func (c *Catalog) dropHolder(node storage.NodeID) {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, r := range s.records {
			if i, held := r.find(node); held && node != r.origin {
				r.holders = slices.Delete(r.holders, i, i+1)
			}
		}
		s.mu.Unlock()
	}
}

// Resolve picks the best replica for a requester: among online
// holders, the one with the lowest RTT from the requester's site, ties
// to the lowest node ID. It counts one access of demand and holds only
// the shard's read lock. ok is false when no holder is online.
func (c *Catalog) Resolve(id storage.DatasetID, requester storage.NodeID) (best Replica, ok bool, err error) {
	s, r := c.read(id)
	defer s.mu.RUnlock()
	if err := known(r, id); err != nil {
		return best, false, err
	}
	r.demand.Add(1)
	members := c.dir.snapshot()
	req, member := members[requester]
	if !member {
		return best, false, fmt.Errorf("server: requester %d has no site", requester)
	}
	var bestRTT time.Duration
	for _, h := range r.holders {
		if rtt := siteRTT(req.Site, h.Site); members[h.Node].Online && (!ok || rtt < bestRTT) {
			best, bestRTT, ok = h, rtt, true
		}
	}
	return best, ok, nil
}

// Replicas lists a dataset's holders sorted by node ID. The error is
// always nil.
func (c *Catalog) Replicas(id storage.DatasetID) ([]Replica, error) {
	s, r := c.read(id)
	defer s.mu.RUnlock()
	return slices.Clone(r.holders), nil
}

// AppendHolders appends the dataset's holder IDs, sorted, to dst: a
// caller that reuses dst allocates nothing.
func (c *Catalog) AppendHolders(dst []storage.NodeID, id storage.DatasetID) []storage.NodeID {
	s, r := c.read(id)
	defer s.mu.RUnlock()
	for _, h := range r.holders {
		dst = append(dst, h.Node)
	}
	return dst
}

// Holds reports whether node is a recorded holder of the dataset.
func (c *Catalog) Holds(id storage.DatasetID, node storage.NodeID) bool {
	s, r := c.read(id)
	defer s.mu.RUnlock()
	_, held := r.find(node)
	return held
}

// DatasetBytes returns a dataset's size.
func (c *Catalog) DatasetBytes(id storage.DatasetID) (int64, error) {
	s, r := c.read(id)
	s.mu.RUnlock()
	return r.bytes, known(r, id)
}

// Origin returns a dataset's origin node.
func (c *Catalog) Origin(id storage.DatasetID) (storage.NodeID, error) {
	s, r := c.read(id)
	s.mu.RUnlock()
	return r.origin, known(r, id)
}

// appendIDs appends the IDs of shard i's datasets to dst, in no
// particular order.
func (c *Catalog) appendIDs(dst []storage.DatasetID, i int) []storage.DatasetID {
	s := c.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id := range s.records {
		dst = append(dst, id)
	}
	return dst
}

// Datasets lists all catalogued dataset IDs, merged across shards and
// sorted ascending. The error is always nil.
func (c *Catalog) Datasets() ([]storage.DatasetID, error) {
	var out []storage.DatasetID
	for i := range c.shards {
		out = c.appendIDs(out, i)
	}
	slices.Sort(out)
	return out, nil
}

// MaintenanceSweep lists, sorted by ID, the datasets whose demand
// reached the threshold and that have fewer holders than the budget.
// Only AckSweep consumes demand, so a repairer that dies between
// sweeping and placing drops no work.
func (c *Catalog) MaintenanceSweep() []HotDataset {
	budget, threshold := int(c.maxReplicas.Load()), c.demandThreshold.Load()
	var hot []HotDataset
	for _, s := range c.shards {
		s.mu.RLock()
		for id, r := range s.records {
			if d := r.demand.Load(); d >= threshold && len(r.holders) < budget {
				hot = append(hot, HotDataset{ID: id, Accesses: d, Replicas: len(r.holders)})
			}
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(hot, func(a, b HotDataset) int { return cmp.Compare(a.ID, b.ID) })
	return hot
}

// AckSweep subtracts each handled recommendation's observed demand
// from its dataset's count (never below zero), so accesses that
// arrived after the sweep are not lost.
func (c *Catalog) AckSweep(hot []HotDataset) {
	for _, h := range hot {
		s, r := c.read(h.ID)
		for d := r.demand.Load(); d > 0 && !r.demand.CompareAndSwap(d, d-min(d, h.Accesses)); d = r.demand.Load() {
		}
		s.mu.RUnlock()
	}
}

// SetPolicy sets MaintenanceSweep's replica budget and demand threshold.
func (c *Catalog) SetPolicy(maxReplicas int, demandThreshold uint64) {
	c.maxReplicas.Store(int64(maxReplicas))
	c.demandThreshold.Store(demandThreshold)
}
