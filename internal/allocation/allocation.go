// Package allocation implements the paper's allocation servers
// (Section V-B): catalogs that map datasets to replicas, resolve client
// requests to the best available replica, track demand, and decide when
// to add, migrate, or retire replicas. A Cluster keeps several servers'
// catalogs consistent, as in the paper's "one or more allocation servers
// act as catalogs for global datasets", and lets the simulator model
// allocation-server outages. The package is the simulator's alone: the
// live serving plane keeps its own sharded catalog (internal/server).
package allocation

import (
	"fmt"
	"sort"
	"time"

	"scdn/internal/storage"
)

// NodeID identifies a participating user/storage node.
type NodeID = storage.NodeID

// Directory supplies node facts the allocation server needs but does not
// own: home sites and liveness. The core composes this from the social
// middleware and the availability model.
type Directory interface {
	// SiteOf returns the node's network-model site.
	SiteOf(node NodeID) (int, bool)
	// Online reports current liveness.
	Online(node NodeID) bool
	// RTT estimates round-trip time between two sites.
	RTT(siteA, siteB int) (time.Duration, error)
}

// Replica is one placed copy of a dataset.
type Replica struct {
	Node NodeID
	Site int
	// PlacedAt is when the replica went live (caller's clock).
	PlacedAt time.Duration
}

// entry is a catalog record.
type entry struct {
	origin   NodeID
	bytes    int64
	replicas map[NodeID]*Replica
	accesses uint64 // demand counter since last maintenance sweep
}

// Server is one allocation server. Not safe for concurrent use.
type Server struct {
	dir     Directory
	catalog map[storage.DatasetID]*entry
	// MaxReplicas bounds per-dataset replication.
	MaxReplicas int
	// DemandThreshold is the per-sweep access count that triggers
	// re-replication.
	DemandThreshold uint64
	// Lookups counts the resolves this server answered.
	Lookups uint64
}

// NewServer creates a server backed by dir.
func NewServer(dir Directory) *Server {
	return &Server{
		dir:             dir,
		catalog:         make(map[storage.DatasetID]*entry),
		MaxReplicas:     5,
		DemandThreshold: 10,
	}
}

// RegisterDataset records a dataset with its origin node and size. The
// origin always holds a copy (the owner's own repository).
func (s *Server) RegisterDataset(id storage.DatasetID, origin NodeID, bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("allocation: non-positive dataset size %d", bytes)
	}
	if _, dup := s.catalog[id]; dup {
		return fmt.Errorf("allocation: dataset %q already registered", id)
	}
	site, ok := s.dir.SiteOf(origin)
	if !ok {
		return fmt.Errorf("allocation: origin node %d has no site", origin)
	}
	s.catalog[id] = &entry{
		origin: origin,
		bytes:  bytes,
		replicas: map[NodeID]*Replica{
			origin: {Node: origin, Site: site},
		},
	}
	return nil
}

// DatasetBytes returns a dataset's size.
func (s *Server) DatasetBytes(id storage.DatasetID) (int64, error) {
	e, ok := s.catalog[id]
	if !ok {
		return 0, fmt.Errorf("allocation: unknown dataset %q", id)
	}
	return e.bytes, nil
}

// Origin returns the dataset's origin node.
func (s *Server) Origin(id storage.DatasetID) (NodeID, error) {
	e, ok := s.catalog[id]
	if !ok {
		return 0, fmt.Errorf("allocation: unknown dataset %q", id)
	}
	return e.origin, nil
}

// AddReplica records a new replica for the dataset.
func (s *Server) AddReplica(id storage.DatasetID, node NodeID, at time.Duration) error {
	e, ok := s.catalog[id]
	if !ok {
		return fmt.Errorf("allocation: unknown dataset %q", id)
	}
	if _, dup := e.replicas[node]; dup {
		return fmt.Errorf("allocation: node %d already replicates %q", node, id)
	}
	site, ok := s.dir.SiteOf(node)
	if !ok {
		return fmt.Errorf("allocation: node %d has no site", node)
	}
	e.replicas[node] = &Replica{Node: node, Site: site, PlacedAt: at}
	return nil
}

// RemoveReplica deletes a replica record. Removing the origin's copy is
// rejected: the owner always keeps their data.
func (s *Server) RemoveReplica(id storage.DatasetID, node NodeID) error {
	e, ok := s.catalog[id]
	if !ok {
		return fmt.Errorf("allocation: unknown dataset %q", id)
	}
	if node == e.origin {
		return fmt.Errorf("allocation: refusing to remove origin copy of %q", id)
	}
	if _, ok := e.replicas[node]; !ok {
		return fmt.Errorf("allocation: node %d does not replicate %q", node, id)
	}
	delete(e.replicas, node)
	return nil
}

// Replicas returns the dataset's replica holders sorted by node ID.
func (s *Server) Replicas(id storage.DatasetID) []Replica {
	e, ok := s.catalog[id]
	if !ok {
		return nil
	}
	out := make([]Replica, 0, len(e.replicas))
	for _, r := range e.replicas {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Resolve picks the best replica for a requester: among online holders,
// the one with the lowest RTT from the requester's site (ties by node
// ID). It records demand. ok is false when no holder is online.
func (s *Server) Resolve(id storage.DatasetID, requester NodeID) (Replica, bool, error) {
	e, okE := s.catalog[id]
	if !okE {
		return Replica{}, false, fmt.Errorf("allocation: unknown dataset %q", id)
	}
	s.Lookups++
	e.accesses++
	reqSite, okS := s.dir.SiteOf(requester)
	if !okS {
		return Replica{}, false, fmt.Errorf("allocation: requester %d has no site", requester)
	}
	best := Replica{}
	bestRTT := time.Duration(-1)
	found := false
	// Deterministic iteration for reproducible simulations.
	nodes := make([]NodeID, 0, len(e.replicas))
	for n := range e.replicas {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		r := e.replicas[n]
		if !s.dir.Online(n) {
			continue
		}
		rtt, err := s.dir.RTT(reqSite, r.Site)
		if err != nil {
			continue
		}
		if !found || rtt < bestRTT {
			best, bestRTT, found = *r, rtt, true
		}
	}
	return best, found, nil
}

// noteAccess records demand without resolving — used by Cluster to
// replicate demand counters to members that did not answer the lookup.
func (s *Server) noteAccess(id storage.DatasetID) {
	if e, ok := s.catalog[id]; ok {
		e.accesses++
	}
}

// HotDataset is a maintenance recommendation: a dataset whose demand
// since the last sweep exceeded the threshold and which still has replica
// budget.
type HotDataset struct {
	ID       storage.DatasetID
	Accesses uint64
	Replicas int
}

// MaintenanceSweep returns datasets needing another replica. It is
// read-only: demand counters survive until the caller acknowledges them
// with AckSweep, so a sweeper that crashes between observing the
// recommendations and acting on them drops no repair work — the next
// sweep sees the same (or higher) demand. The caller performs the
// actual placement and transfer, calls AddReplica, then AckSweep.
func (s *Server) MaintenanceSweep() []HotDataset {
	var hot []HotDataset
	ids := make([]storage.DatasetID, 0, len(s.catalog))
	for id := range s.catalog {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := s.catalog[id]
		if e.accesses >= s.DemandThreshold && len(e.replicas) < s.MaxReplicas {
			hot = append(hot, HotDataset{ID: id, Accesses: e.accesses, Replicas: len(e.replicas)})
		}
	}
	return hot
}

// AckSweep acknowledges handled sweep recommendations: each entry's
// observed demand is subtracted from the dataset's counter, so accesses
// that arrived between the sweep and the acknowledgment are not lost.
// Unknown datasets are skipped.
func (s *Server) AckSweep(hot []HotDataset) {
	for _, h := range hot {
		e, ok := s.catalog[h.ID]
		if !ok {
			continue
		}
		if e.accesses >= h.Accesses {
			e.accesses -= h.Accesses
		} else {
			e.accesses = 0
		}
	}
}

// Datasets returns all catalogued dataset IDs sorted ascending.
func (s *Server) Datasets() []storage.DatasetID {
	ids := make([]storage.DatasetID, 0, len(s.catalog))
	for id := range s.catalog {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ReplicaCount returns the dataset's current replica count (0 if
// unknown).
func (s *Server) ReplicaCount(id storage.DatasetID) int {
	e, ok := s.catalog[id]
	if !ok {
		return 0
	}
	return len(e.replicas)
}
