package server

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/storage"
)

// Member is one participant the serving plane knows about: an edge node
// (BaseURL set) or a pure client (BaseURL empty). Both occupy the same
// identifier space — in the paper every participant is a researcher who
// may both consume data and contribute an edge repository.
type Member struct {
	Node storage.NodeID
	Site int
	// BaseURL is the member's HTTP endpoint ("http://host:port"), empty
	// for client-only members.
	BaseURL string
	Online  bool
}

// Registry is the live-membership directory of the serving plane: the
// catalog's replica selection (nearest online holder) runs against
// real node liveness. Safe for concurrent use.
//
// Reads are lock-free: membership lives in an immutable map snapshot
// behind an atomic pointer, and writers publish a fresh copy. Every
// catalog resolve reads the requester's site and each holder's
// liveness, so a shared reader lock here would serialize all catalog
// shards on one contended cache line; copy-on-write keeps the read
// path scaling with cores while membership churn — rare next to
// lookups — pays the copy.
type Registry struct {
	writeMu sync.Mutex // serializes writers; readers never take it
	members atomic.Pointer[map[storage.NodeID]Member]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := make(map[storage.NodeID]Member)
	r.members.Store(&empty)
	return r
}

// snapshot returns the current immutable membership map. Callers must
// not mutate it.
func (r *Registry) snapshot() map[storage.NodeID]Member {
	return *r.members.Load()
}

// update publishes a new snapshot produced by applying fn to a copy of
// the current membership.
func (r *Registry) update(fn func(map[storage.NodeID]Member)) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	next := maps.Clone(r.snapshot())
	fn(next)
	r.members.Store(&next)
}

// Register adds or replaces a member record.
func (r *Registry) Register(m Member) {
	r.update(func(members map[storage.NodeID]Member) {
		members[m.Node] = m
	})
}

// SetOnline flips a member's liveness (no-op for unknown members).
func (r *Registry) SetOnline(node storage.NodeID, online bool) {
	r.update(func(members map[storage.NodeID]Member) {
		if m, ok := members[node]; ok {
			m.Online = online
			members[node] = m
		}
	})
}

// SetBaseURL records a member's HTTP endpoint once it starts listening.
func (r *Registry) SetBaseURL(node storage.NodeID, url string) {
	r.update(func(members map[storage.NodeID]Member) {
		if m, ok := members[node]; ok {
			m.BaseURL = url
			members[node] = m
		}
	})
}

// BaseURL returns a member's endpoint.
func (r *Registry) BaseURL(node storage.NodeID) (string, bool) {
	m, ok := r.snapshot()[node]
	if !ok || m.BaseURL == "" {
		return "", false
	}
	return m.BaseURL, true
}

// Online reports whether a member is registered and online.
func (r *Registry) Online(node storage.NodeID) bool {
	m, ok := r.snapshot()[node]
	return ok && m.Online
}

// siteRTT estimates the round-trip time between two sites for replica
// selection: 1 ms, plus 2 ms per site of distance.
func siteRTT(siteA, siteB int) time.Duration {
	return time.Millisecond + time.Duration(max(siteA-siteB, siteB-siteA))*2*time.Millisecond
}

// ErrNoEndpoint reports a member without a serving endpoint.
var ErrNoEndpoint = fmt.Errorf("server: member has no endpoint")
