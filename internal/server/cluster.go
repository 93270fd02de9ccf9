package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/ingest"
	"scdn/internal/middleware"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// ClusterConfig parameterizes an in-process edge cluster listening on
// real TCP sockets — the serving-plane analogue of the simulator's
// Community.Build.
type ClusterConfig struct {
	// Nodes is the edge-server count (default 3).
	Nodes int
	// Sites spreads nodes and users across this many network sites
	// (default: one site per node).
	Sites int
	// Users is the number of client-only participants (default 8).
	Users int
	// Datasets is the number of published datasets (default 12) of
	// DatasetBytes each (default 64 KiB), owned round-robin by the edges.
	Datasets     int
	DatasetBytes int64
	// NoSeedDatasets starts the cluster with zero published datasets
	// (ingest-driven runs: every dataset enters through an upload).
	NoSeedDatasets bool
	// RepoCapacity / ReplicaReserve size each edge repository
	// (defaults 1 GiB / 512 MiB).
	RepoCapacity   int64
	ReplicaReserve int64
	// StoreMode accepts only "" or StoreModeDir ("dir"), which mean the
	// same thing: every edge stores replicas on a disk-backed volume.
	// Any other value is an error. It selects nothing; it remains only
	// for callers that still set it.
	StoreMode string
	// StoreDir roots the per-node replica volumes
	// (<StoreDir>/node-<id>/...). Empty means a fresh temp directory
	// that Shutdown removes.
	StoreDir string
	// StoreQuota bounds each node's replica volume (default
	// ReplicaReserve).
	StoreQuota int64
	// SegmentSize / SegmentThreshold configure every node's segmented
	// large-object layout (see Config). Zeros take the storage package
	// defaults; a negative threshold disables segmentation.
	SegmentSize      int64
	SegmentThreshold int64
	// KeepSegmentPages disables the page-cache DONTNEED drop behind
	// completed sequential segment serves (see Config).
	KeepSegmentPages bool
	// Group is the collaboration every participant and dataset belongs
	// to (default "live-collab").
	Group string
	// Seed drives the platform's token generation.
	Seed int64
	// PullThrough enables demand-driven replica caching on the edges.
	PullThrough bool
	// Sweep configures every node's background repair sweeper; the zero
	// value enables it with defaults (see SweeperConfig).
	Sweep SweeperConfig
	// ListenHost is the bind address (default 127.0.0.1); ports are
	// ephemeral.
	ListenHost string
}

func (c *ClusterConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Sites <= 0 {
		c.Sites = c.Nodes
	}
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.Datasets <= 0 {
		c.Datasets = 12
	}
	if c.DatasetBytes <= 0 {
		c.DatasetBytes = 64 << 10
	}
	if c.RepoCapacity <= 0 {
		c.RepoCapacity = 1 << 30
	}
	if c.ReplicaReserve <= 0 {
		c.ReplicaReserve = c.RepoCapacity / 2
	}
	if c.StoreQuota <= 0 {
		c.StoreQuota = c.ReplicaReserve
	}
	if c.Group == "" {
		c.Group = "live-collab"
	}
	if c.ListenHost == "" {
		c.ListenHost = "127.0.0.1"
	}
}

// StoreModeDir is the one ClusterConfig.StoreMode value besides "".
const StoreModeDir = "dir"

// clientUserBase offsets client user IDs away from edge node IDs.
const clientUserBase = 100

// LocalCluster is a running in-process cluster: N edge nodes over
// loopback TCP sharing one platform, middleware, registry, and catalog.
type LocalCluster struct {
	Config     ClusterConfig
	Platform   *socialnet.Platform
	Middleware *middleware.Middleware
	Registry   *Registry
	Catalog    *Catalog
	Manifests  *ingest.Store
	Nodes      []*Node
	// UserIDs are the client participants; DatasetIDs the published data.
	UserIDs    []socialnet.UserID
	DatasetIDs []storage.DatasetID
	// StoreRoot is the replica-volume root; node i's volume — its pack
	// files and index log — lives in StoreRoot/node-<id>/.
	StoreRoot string
	// ownStoreRoot marks a temp StoreRoot the cluster created and must
	// remove on Shutdown.
	ownStoreRoot bool
}

// StartLocalCluster assembles and starts a cluster. On any error the
// already-started nodes are shut down before returning.
func StartLocalCluster(cfg ClusterConfig) (*LocalCluster, error) {
	cfg.applyDefaults()
	if cfg.StoreMode != "" && cfg.StoreMode != StoreModeDir {
		return nil, fmt.Errorf("server: unknown store mode %q (want %q or empty)", cfg.StoreMode, StoreModeDir)
	}
	platform := socialnet.New(cfg.Seed)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	mw := middleware.New(platform, clock)
	reg := NewRegistry()
	catalog := NewCatalog(reg)
	manifests := ingest.NewStore()
	lc := &LocalCluster{
		Config: cfg, Platform: platform, Middleware: mw,
		Registry: reg, Catalog: catalog, Manifests: manifests,
	}
	if cfg.StoreDir != "" {
		lc.StoreRoot = cfg.StoreDir
	} else {
		root, err := os.MkdirTemp("", "scdn-store-")
		if err != nil {
			return nil, fmt.Errorf("server: store root: %w", err)
		}
		lc.StoreRoot = root
		lc.ownStoreRoot = true
	}
	// fail unwinds partial bootstrap (a temp store root must not leak).
	fail := func(err error) (*LocalCluster, error) {
		if lc.ownStoreRoot {
			_ = os.RemoveAll(lc.StoreRoot)
		}
		return nil, err
	}

	// Edge nodes are researchers contributing repositories (Section V-A):
	// platform users, group members, registry members, one repo each.
	repos := make([]*storage.Repository, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		nodeID := allocation.NodeID(i + 1)
		site := i % cfg.Sites
		if err := platform.Register(socialnet.UserID(nodeID), socialnet.Profile{
			Name: fmt.Sprintf("edge-%d", nodeID), SiteID: site,
		}); err != nil {
			return fail(err)
		}
		if err := platform.JoinGroup(cfg.Group, socialnet.UserID(nodeID)); err != nil {
			return fail(err)
		}
		reg.Register(Member{Node: nodeID, Site: site})
		repo, err := storage.NewRepository(nodeID, site, cfg.RepoCapacity, cfg.ReplicaReserve)
		if err != nil {
			return fail(err)
		}
		repos[i] = repo
		vol, err := storage.NewDiskVolume(
			filepath.Join(lc.StoreRoot, fmt.Sprintf("node-%d", nodeID)), cfg.StoreQuota)
		if err != nil {
			return fail(err)
		}
		node, err := NewNode(Config{
			Node:             nodeID,
			ListenAddr:       cfg.ListenHost + ":0",
			PullThrough:      cfg.PullThrough,
			Volume:           vol,
			Sweep:            cfg.Sweep,
			Manifests:        manifests,
			SegmentSize:      cfg.SegmentSize,
			SegmentThreshold: cfg.SegmentThreshold,
			KeepSegmentPages: cfg.KeepSegmentPages,
			Clock:            clock,
		}, repo, mw, catalog, reg)
		if err != nil {
			return fail(err)
		}
		lc.Nodes = append(lc.Nodes, node)
	}

	// Client participants: consume data but serve nothing.
	for u := 0; u < cfg.Users; u++ {
		uid := socialnet.UserID(clientUserBase + 1 + u)
		site := u % cfg.Sites
		if err := platform.Register(uid, socialnet.Profile{
			Name: fmt.Sprintf("user-%d", uid), SiteID: site,
		}); err != nil {
			return fail(err)
		}
		if err := platform.JoinGroup(cfg.Group, uid); err != nil {
			return fail(err)
		}
		reg.Register(Member{Node: allocation.NodeID(uid), Site: site, Online: true})
		lc.UserIDs = append(lc.UserIDs, uid)
	}

	// Datasets: group-scoped, owned round-robin by the edges; the
	// owner's repository holds the origin copy. Each seeded dataset gets
	// a content manifest computed from its deterministic payload
	// (opaque=false — it stays regenerable), so digest verification on
	// peer transfers works uniformly for seeded and uploaded data.
	if !cfg.NoSeedDatasets {
		for d := 0; d < cfg.Datasets; d++ {
			id := storage.DatasetID(fmt.Sprintf("ds-%03d", d+1))
			originIdx := d % cfg.Nodes
			origin := allocation.NodeID(originIdx + 1)
			if err := mw.RegisterDataset(id, cfg.Group); err != nil {
				return fail(err)
			}
			if err := catalog.RegisterDataset(id, origin, cfg.DatasetBytes); err != nil {
				return fail(err)
			}
			if err := repos[originIdx].StoreUser(id, cfg.DatasetBytes, 0); err != nil {
				return fail(err)
			}
			man, err := ingest.HashAt(payloadBlock(id), cfg.DatasetBytes, id, false)
			if err != nil {
				return fail(err)
			}
			if err := manifests.Put(man); err != nil {
				return fail(err)
			}
			lc.DatasetIDs = append(lc.DatasetIDs, id)
		}
	}

	for _, node := range lc.Nodes {
		if err := node.Start(); err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = lc.Shutdown(ctx)
			cancel()
			return nil, err
		}
	}
	return lc, nil
}

// URLs returns the running nodes' endpoints.
func (lc *LocalCluster) URLs() []string {
	out := make([]string, 0, len(lc.Nodes))
	for _, n := range lc.Nodes {
		out = append(out, n.BaseURL())
	}
	return out
}

// DatasetReplication is one dataset's replication health: how many
// holders the catalog records and how many of them are currently online.
type DatasetReplication struct {
	ID       storage.DatasetID
	Replicas int
	Live     int
}

// ReplicationStatus reports every dataset's replication health — the
// post-churn acceptance check: after repair converges, each dataset's
// Live count must be back at the replication target (capped by how many
// edges are up).
func (lc *LocalCluster) ReplicationStatus() []DatasetReplication {
	out := make([]DatasetReplication, 0, len(lc.DatasetIDs))
	for _, id := range lc.DatasetIDs {
		st := DatasetReplication{ID: id}
		if reps, err := lc.Catalog.Replicas(id); err == nil {
			st.Replicas = len(reps)
			for _, r := range reps {
				if lc.Registry.Online(r.Node) {
					st.Live++
				}
			}
		}
		out = append(out, st)
	}
	return out
}

// LiveNodes counts edges currently serving.
func (lc *LocalCluster) LiveNodes() int {
	live := 0
	for _, n := range lc.Nodes {
		if n.Running() {
			live++
		}
	}
	return live
}

// Login opens a session for a participant directly against the
// middleware (tests and in-process drivers; remote clients use
// POST /v1/login).
func (lc *LocalCluster) Login(user socialnet.UserID) (socialnet.Token, error) {
	return lc.Middleware.Login(user)
}

// Quiesce waits until no node has a request in flight (see
// Node.Quiesce), returning the first error.
func (lc *LocalCluster) Quiesce(ctx context.Context) error {
	for _, n := range lc.Nodes {
		if err := n.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown gracefully stops every node and closes its volume, returning
// the first error. A temp store root created by StartLocalCluster is
// removed; an explicit StoreDir is left in place.
func (lc *LocalCluster) Shutdown(ctx context.Context) error {
	var firstErr error
	for _, n := range lc.Nodes {
		if err := errors.Join(n.Stop(ctx), n.vol.Close()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if lc.ownStoreRoot {
		if err := os.RemoveAll(lc.StoreRoot); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
