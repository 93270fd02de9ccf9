package allocation

import (
	"fmt"
	"time"

	"scdn/internal/storage"
)

// Cluster keeps several allocation servers' catalogs consistent: every
// mutation is applied to all live members, and reads round-robin across
// live members so lookup load is shared. Trusted third parties (national
// labs, universities) host these servers in the paper's design; the
// cluster survives individual server outages as long as one member is up.
// Reads advance the round-robin cursor, so a Cluster is not safe for
// concurrent use, not even by readers alone.
type Cluster struct {
	servers []*Server
	down    map[int]bool
	cursor  int // round-robin read cursor
}

// NewCluster builds n servers over the directory. n must be >= 1.
func NewCluster(n int, dir Directory) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("allocation: cluster needs at least one server, got %d", n)
	}
	c := &Cluster{down: make(map[int]bool)}
	for i := 0; i < n; i++ {
		c.servers = append(c.servers, NewServer(dir))
	}
	return c, nil
}

// SetDown marks a server offline (true) or online (false); mutations and
// reads skip offline members. Offline members are re-synchronized from a
// live member when they return.
func (c *Cluster) SetDown(id int, down bool) error {
	if id < 0 || id >= len(c.servers) {
		return fmt.Errorf("allocation: no server %d", id)
	}
	wasDown := c.down[id]
	c.down[id] = down
	if wasDown && !down {
		// Rejoin: copy catalog state from the first live member.
		src := c.firstLive(id)
		if src != nil {
			c.servers[id].catalog = cloneCatalog(src.catalog)
		}
	}
	return nil
}

func (c *Cluster) firstLive(excluding int) *Server {
	for i, s := range c.servers {
		if i != excluding && !c.down[i] {
			return s
		}
	}
	return nil
}

func cloneCatalog(in map[storage.DatasetID]*entry) map[storage.DatasetID]*entry {
	out := make(map[storage.DatasetID]*entry, len(in))
	for id, e := range in {
		ce := &entry{origin: e.origin, bytes: e.bytes, accesses: e.accesses,
			replicas: make(map[NodeID]*Replica, len(e.replicas))}
		for n, r := range e.replicas {
			cr := *r
			ce.replicas[n] = &cr
		}
		out[id] = ce
	}
	return out
}

// live returns a live server for reads, advancing the round-robin cursor.
func (c *Cluster) live() (*Server, error) {
	start := c.cursor % len(c.servers)
	c.cursor++
	for i := 0; i < len(c.servers); i++ {
		idx := (start + i) % len(c.servers)
		if !c.down[idx] {
			return c.servers[idx], nil
		}
	}
	return nil, fmt.Errorf("allocation: no live allocation server")
}

// applyAll runs a mutation on every live server, returning the first
// error (mutations are deterministic, so either all live members succeed
// or all fail identically).
func (c *Cluster) applyAll(fn func(*Server) error) error {
	var firstErr error
	applied := false
	for i, s := range c.servers {
		if c.down[i] {
			continue
		}
		if err := fn(s); err != nil && firstErr == nil {
			firstErr = err
		}
		applied = true
	}
	if !applied {
		return fmt.Errorf("allocation: no live allocation server")
	}
	return firstErr
}

// RegisterDataset replicates the registration across the cluster.
func (c *Cluster) RegisterDataset(id storage.DatasetID, origin NodeID, bytes int64) error {
	return c.applyAll(func(s *Server) error { return s.RegisterDataset(id, origin, bytes) })
}

// AddReplica replicates a replica record across the cluster.
func (c *Cluster) AddReplica(id storage.DatasetID, node NodeID, at time.Duration) error {
	return c.applyAll(func(s *Server) error { return s.AddReplica(id, node, at) })
}

// RemoveReplica replicates a replica removal across the cluster.
func (c *Cluster) RemoveReplica(id storage.DatasetID, node NodeID) error {
	return c.applyAll(func(s *Server) error { return s.RemoveReplica(id, node) })
}

// Resolve answers from one live server (round-robin) and replicates the
// demand count to the other live members so maintenance sweeps agree.
func (c *Cluster) Resolve(id storage.DatasetID, requester NodeID) (Replica, bool, error) {
	s, err := c.live()
	if err != nil {
		return Replica{}, false, err
	}
	r, ok, err := s.Resolve(id, requester)
	if err == nil {
		for i, other := range c.servers {
			if other != s && !c.down[i] {
				other.noteAccess(id)
			}
		}
	}
	return r, ok, err
}

// Replicas reads the replica set from a live server.
func (c *Cluster) Replicas(id storage.DatasetID) ([]Replica, error) {
	s, err := c.live()
	if err != nil {
		return nil, err
	}
	return s.Replicas(id), nil
}

// DatasetBytes reads a dataset size from a live server.
func (c *Cluster) DatasetBytes(id storage.DatasetID) (int64, error) {
	s, err := c.live()
	if err != nil {
		return 0, err
	}
	return s.DatasetBytes(id)
}

// Origin reads a dataset origin from a live server.
func (c *Cluster) Origin(id storage.DatasetID) (NodeID, error) {
	s, err := c.live()
	if err != nil {
		return 0, err
	}
	return s.Origin(id)
}

// ReplicaCount reads from a live server (0 when none live).
func (c *Cluster) ReplicaCount(id storage.DatasetID) int {
	s, err := c.live()
	if err != nil {
		return 0
	}
	return s.ReplicaCount(id)
}

// Datasets lists dataset IDs from a live server.
func (c *Cluster) Datasets() ([]storage.DatasetID, error) {
	s, err := c.live()
	if err != nil {
		return nil, err
	}
	return s.Datasets(), nil
}

// MaintenanceSweep returns one live member's recommendations (they are
// identical across a consistent cluster). The sweep is read-only:
// demand counters are only consumed by AckSweep, so a caller that dies
// between sweeping and repairing loses nothing.
func (c *Cluster) MaintenanceSweep() ([]HotDataset, error) {
	for i, s := range c.servers {
		if c.down[i] {
			continue
		}
		return s.MaintenanceSweep(), nil
	}
	return nil, fmt.Errorf("allocation: no live allocation server")
}

// AckSweep acknowledges handled sweep recommendations on every live
// member, keeping their demand counters aligned.
func (c *Cluster) AckSweep(hot []HotDataset) {
	for i, s := range c.servers {
		if c.down[i] {
			continue
		}
		s.AckSweep(hot)
	}
}

// SetPolicy applies replica-budget and demand-threshold settings to every
// member (live or not — policy is configuration, not state).
func (c *Cluster) SetPolicy(maxReplicas int, demandThreshold uint64) {
	for _, s := range c.servers {
		s.MaxReplicas = maxReplicas
		s.DemandThreshold = demandThreshold
	}
}
