package core

import (
	"fmt"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// The per-researcher CDN client of Section V-A: a lightweight agent
// configured with the user's social credentials that manages the
// contributed repository, resolves data through the allocation servers,
// initiates third-party transfers into the user's shared folder, and
// reports usage statistics.

// Outcome classifies one data access.
type Outcome int

// Access outcomes.
const (
	// LocalHit: the dataset was already in the user's repository.
	LocalHit Outcome = iota
	// ReplicaFetch: fetched from a CDN replica.
	ReplicaFetch
	// OriginFetch: no replica besides the origin was available; fetched
	// from the owner.
	OriginFetch
	// Denied: authorization failed.
	Denied
	// Unavailable: no online holder existed.
	Unavailable
	// TransferFailed: the transfer could not complete.
	TransferFailed
)

func (o Outcome) String() string {
	switch o {
	case LocalHit:
		return "local-hit"
	case ReplicaFetch:
		return "replica-fetch"
	case OriginFetch:
		return "origin-fetch"
	case Denied:
		return "denied"
	case Unavailable:
		return "unavailable"
	case TransferFailed:
		return "transfer-failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// AccessResult describes one completed access.
type AccessResult struct {
	Outcome Outcome
	Dataset storage.DatasetID
	// Source is the node served from (0 for local hits/failures).
	Source allocation.NodeID
	// Elapsed is the end-to-end latency in virtual time.
	Elapsed time.Duration
	// ThroughputMbps is the transfer goodput (0 if no transfer).
	ThroughputMbps float64
	Err            error
}

// Authorizer validates a session token against a dataset's trust
// boundary (the social middleware).
type Authorizer interface {
	Authorize(tok socialnet.Token, id storage.DatasetID) (socialnet.UserID, error)
}

// Resolver locates replicas (the allocation cluster).
type Resolver interface {
	Resolve(id storage.DatasetID, requester allocation.NodeID) (allocation.Replica, bool, error)
	DatasetBytes(id storage.DatasetID) (int64, error)
	Origin(id storage.DatasetID) (allocation.NodeID, error)
}

// Fetcher moves data between users' repositories (the transfer client
// over the transfer engine). done receives success, elapsed virtual time,
// and goodput.
type Fetcher interface {
	Fetch(src, dst allocation.NodeID, bytes int64, done func(ok bool, elapsed time.Duration, mbps float64)) error
}

// Clock yields current virtual time.
type Clock func() time.Duration

// Client is one user's CDN agent.
type Client struct {
	User  allocation.NodeID
	Token socialnet.Token
	Repo  *Repository

	auth    Authorizer
	resolve Resolver
	fetch   Fetcher
	clock   Clock

	// Accesses / ByOutcome are client-side statistics the client reports
	// to allocation servers.
	Accesses  uint64
	ByOutcome map[Outcome]uint64
}

// NewClient wires a client. All collaborators are required.
func NewClient(user allocation.NodeID, token socialnet.Token, repo *Repository,
	auth Authorizer, resolver Resolver, fetcher Fetcher, clock Clock) (*Client, error) {
	if repo == nil || auth == nil || resolver == nil || fetcher == nil || clock == nil {
		return nil, fmt.Errorf("core: missing collaborator")
	}
	return &Client{
		User: user, Token: token, Repo: repo,
		auth: auth, resolve: resolver, fetch: fetcher, clock: clock,
		ByOutcome: make(map[Outcome]uint64),
	}, nil
}

// Access performs the Section V-A access protocol: local check →
// middleware authorization → allocation-server lookup → third-party
// transfer into the user's shared folder. done fires exactly once, in
// virtual time.
func (c *Client) Access(id storage.DatasetID, done func(AccessResult)) {
	start := c.clock()
	finish := func(r AccessResult) {
		r.Dataset = id
		r.Elapsed = c.clock() - start
		c.Accesses++
		c.ByOutcome[r.Outcome]++
		if done != nil {
			done(r)
		}
	}
	// Local check first: the shared folder may already hold the data.
	if _, ok := c.Repo.Read(id, start); ok {
		finish(AccessResult{Outcome: LocalHit})
		return
	}
	// Authorization through the social middleware.
	if _, err := c.auth.Authorize(c.Token, id); err != nil {
		finish(AccessResult{Outcome: Denied, Err: err})
		return
	}
	// Discover a replica.
	rep, ok, err := c.resolve.Resolve(id, c.User)
	if err != nil {
		finish(AccessResult{Outcome: Unavailable, Err: err})
		return
	}
	if !ok {
		finish(AccessResult{Outcome: Unavailable})
		return
	}
	bytes, err := c.resolve.DatasetBytes(id)
	if err != nil {
		finish(AccessResult{Outcome: Unavailable, Err: err})
		return
	}
	origin, err := c.resolve.Origin(id)
	if err != nil {
		finish(AccessResult{Outcome: Unavailable, Err: err})
		return
	}
	outcome := ReplicaFetch
	if rep.Node == origin {
		outcome = OriginFetch
	}
	// Third-party transfer into the user's shared folder.
	err = c.fetch.Fetch(rep.Node, c.User, bytes, func(okT bool, _ time.Duration, mbps float64) {
		if !okT {
			finish(AccessResult{Outcome: TransferFailed, Source: rep.Node})
			return
		}
		if err := c.Repo.StoreUser(id, bytes, c.clock()); err != nil {
			// Data arrived but cannot be kept (repository too small):
			// the access still succeeded.
			finish(AccessResult{Outcome: outcome, Source: rep.Node, ThroughputMbps: mbps, Err: err})
			return
		}
		finish(AccessResult{Outcome: outcome, Source: rep.Node, ThroughputMbps: mbps})
	})
	if err != nil {
		finish(AccessResult{Outcome: TransferFailed, Source: rep.Node, Err: err})
	}
}

// HostReplica accepts a CDN placement: stores the dataset in the replica
// partition after fetching it from src. done reports acceptance (the
// Section V-E "request acceptance" signal) and then completion.
func (c *Client) HostReplica(id storage.DatasetID, src allocation.NodeID, bytes int64,
	done func(accepted bool, fetched bool)) {
	// The client checks partition room before accepting.
	st := c.Repo.Stats()
	if st.ReplicaUsedBytes+bytes > c.Repo.ReplicaReserve() || c.Repo.HasReplica(id) {
		if done != nil {
			done(false, false)
		}
		return
	}
	err := c.fetch.Fetch(src, c.User, bytes, func(ok bool, _ time.Duration, _ float64) {
		if !ok {
			if done != nil {
				done(true, false)
			}
			return
		}
		if err := c.Repo.StoreReplica(id, bytes, c.clock()); err != nil {
			if done != nil {
				done(true, false)
			}
			return
		}
		if done != nil {
			done(true, true)
		}
	})
	if err != nil && done != nil {
		done(true, false)
	}
}
