// Package server is the S-CDN's live delivery plane: a network-facing
// HTTP allocation/edge server wrapping the simulator's building blocks —
// the allocation catalog (Section V-B), researcher-contributed storage
// repositories (Section V-A), and the social middleware's authentication
// and group-scoped authorization (Section V-C) — behind a concurrent API.
// Each Node is simultaneously an allocation endpoint (it resolves
// requests against the shared catalog) and an edge repository (it serves
// dataset bytes, falling back to a peer edge with bounded retry and
// exponential backoff when it does not hold the data locally).
//
// Nodes are member-contributed and carry no uptime SLA: they can be
// stopped (graceful drain), crashed (hard close, no goodbye), and
// started again. A background repair sweeper per node (sweeper.go)
// detects dead members by failed health probes, deregisters them, and
// re-replicates under-replicated datasets onto survivors; churn.go
// injects scripted failures so the loop is testable end to end.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/ingest"
	"scdn/internal/middleware"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

// Config parameterizes one node.
type Config struct {
	// Node is this edge's participant ID (its repository owner).
	Node allocation.NodeID
	// ListenAddr is the TCP address to bind ("127.0.0.1:0" for an
	// ephemeral port).
	ListenAddr string
	// PullThrough caches successfully proxied datasets in the local
	// replica partition and registers the new replica in the catalog, so
	// demand migrates data toward where it is requested.
	PullThrough bool
	// Volume is the node's disk-backed replica volume (required):
	// locally held datasets are materialized as real files (once, via
	// the deterministic generator) and served by seek + sendfile, and
	// pull-through caching spills the proxied stream straight to disk.
	Volume *storage.DiskVolume
	// Sweep configures the node's background repair sweeper
	// (sweeper.go). The zero value enables it with defaults; set
	// Sweep.Disabled to run without one.
	Sweep SweeperConfig
	// Manifests is the cluster's shared content-address index (dataset →
	// manifest). Nil gets a private empty store; clusters share one the
	// same way they share the catalog.
	Manifests *ingest.Store
	// SegmentSize is the fixed segment size of the large-object layout
	// (segments.go); it must be a positive multiple of the ingest block
	// size so every segment boundary is a digest boundary. Zero means
	// storage.DefaultSegmentSize.
	SegmentSize int64
	// SegmentThreshold is the dataset size at or above which the node
	// stores and serves bytes as segments instead of one flat file. Zero
	// means storage.DefaultSegmentThreshold; negative disables the
	// segmented layout entirely.
	SegmentThreshold int64
	// KeepSegmentPages disables the page-cache hygiene drop
	// (posix_fadvise DONTNEED) behind completed sequential segment
	// serves. Set it when the box is dedicated to serving one hot large
	// object and the pages are worth keeping.
	KeepSegmentPages bool
	// Clock supplies the node's notion of elapsed time (repository
	// recency, token expiry). Nil means wall time since Start.
	Clock func() time.Duration
}

// Node is one running allocation/edge server.
type Node struct {
	cfg      Config
	auth     *middleware.Middleware
	catalog  *Catalog
	registry *Registry
	vol      *storage.DiskVolume
	srcID    string   // X-SCDN-Source value, rendered once
	srcHdr   []string // the same value as a sharable header slice
	Metrics  *Metrics

	// manifests is the shared content-address index: which datasets are
	// content-addressed (and which of those are opaque — not
	// regenerable). See upload.go and the opaque rules in handlers.go.
	manifests *ingest.Store

	// upMu guards uploads, the in-flight striped upload sessions
	// (upload.go).
	upMu    sync.Mutex
	uploads map[storage.DatasetID]*uploadSession

	// segIdxMu guards segIdx, the per-dataset cache of rolled-up
	// segment digests published on /v1/resolve (segments.go).
	segIdxMu sync.Mutex
	segIdx   map[storage.DatasetID][]string

	// suspects is the node's local failure-detector state: members whose
	// last health probe failed. The fetch path skips suspects before the
	// registry has deregistered them (sweeper.go).
	suspects suspectTable

	// repoMu serializes access to the repository, which is
	// single-threaded by design (the simulator owns it elsewhere).
	repoMu sync.Mutex
	repo   *storage.Repository

	// client carries the health probes, replicate calls and repair byte
	// copies; fetch hops ride relay (relay.go).
	client *http.Client
	relay  relayPool

	// inflight tracks the requests the node's connections are serving
	// (Quiesce).
	inflight inflight

	mu          sync.Mutex
	httpSrv     *http.Server // fresh per Start: a shut-down http.Server cannot serve again
	ln          net.Listener
	started     time.Time
	baseURL     string
	running     bool
	everStarted bool
	sweepCancel context.CancelFunc
	sweepDone   chan struct{}
}

// NewNode wires a node over shared serving-plane state. All
// collaborators, and cfg.Volume, are required.
func NewNode(cfg Config, repo *storage.Repository, auth *middleware.Middleware,
	catalog *Catalog, registry *Registry) (*Node, error) {
	if repo == nil || auth == nil || catalog == nil || registry == nil || cfg.Volume == nil {
		return nil, errors.New("server: missing collaborator")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	cfg.Sweep.applyDefaults()
	if cfg.Manifests == nil {
		cfg.Manifests = ingest.NewStore()
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = storage.DefaultSegmentSize
	}
	if cfg.SegmentThreshold == 0 {
		cfg.SegmentThreshold = storage.DefaultSegmentThreshold
	}
	if cfg.SegmentSize <= 0 || cfg.SegmentSize%ingest.DefaultBlockSize != 0 {
		return nil, fmt.Errorf("server: segment size %d is not a positive multiple of the %d-byte ingest block",
			cfg.SegmentSize, ingest.DefaultBlockSize)
	}
	n := &Node{
		cfg:       cfg,
		repo:      repo,
		auth:      auth,
		catalog:   catalog,
		registry:  registry,
		vol:       cfg.Volume,
		srcID:     strconv.FormatInt(int64(cfg.Node), 10),
		srcHdr:    []string{strconv.FormatInt(int64(cfg.Node), 10)},
		Metrics:   &Metrics{},
		manifests: cfg.Manifests,
		uploads:   make(map[storage.DatasetID]*uploadSession),
		client:    transport.NewClient(peerTimeout),
	}
	return n, nil
}

// ID returns the node's participant ID.
func (n *Node) ID() allocation.NodeID { return n.cfg.Node }

// now returns elapsed time on the node's clock.
func (n *Node) now() time.Duration {
	if n.cfg.Clock != nil {
		return n.cfg.Clock()
	}
	n.mu.Lock()
	s := n.started
	n.mu.Unlock()
	return time.Since(s)
}

// Start binds the listener, begins serving in a background goroutine,
// publishes the node's endpoint and liveness in the registry, and (when
// enabled) launches the repair sweeper. Starting again after Stop or
// Crash restarts the node on a fresh ephemeral port: the member rejoins
// the registry and re-adopts any replicas its disk volume or repository
// still holds.
func (n *Node) Start() error {
	// Claim the started state first, then bind outside the mutex: a slow
	// or hanging listen must not block BaseURL/Stop callers.
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return errors.New("server: already started")
	}
	n.running = true
	n.mu.Unlock()
	ln, err := net.Listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		n.mu.Lock()
		n.running = false
		n.mu.Unlock()
		return fmt.Errorf("server: listen %s: %w", n.cfg.ListenAddr, err)
	}
	// A shut-down or closed http.Server is spent; every (re)start gets a
	// fresh one over the node's handler.
	srv := &http.Server{
		Handler:           n.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ConnState:         n.inflight.connState,
	}
	baseURL := "http://" + ln.Addr().String()
	var sweepCtx context.Context
	n.mu.Lock()
	restart := n.everStarted
	n.everStarted = true
	n.httpSrv = srv
	n.ln = ln
	n.started = time.Now()
	n.baseURL = baseURL
	if !n.cfg.Sweep.Disabled {
		sweepCtx, n.sweepCancel = context.WithCancel(context.Background())
		n.sweepDone = make(chan struct{})
	}
	done := n.sweepDone
	n.mu.Unlock()
	if restart {
		n.Metrics.ChurnRestarts.Inc()
	}
	n.registry.SetBaseURL(n.cfg.Node, baseURL)
	n.registry.SetOnline(n.cfg.Node, true)
	if restart {
		// A restarted member still holds whatever its volume and
		// repository committed before the crash: re-announce those
		// replicas so the catalog converges without re-transferring.
		n.readoptReplicas()
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener died outside a graceful shutdown: withdraw
			// from the membership so peers stop selecting this edge.
			n.registry.SetOnline(n.cfg.Node, false)
		}
	}()
	if sweepCtx != nil {
		go n.runSweeper(sweepCtx, done)
	}
	return nil
}

// BaseURL returns the node's endpoint ("" before Start).
func (n *Node) BaseURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.baseURL
}

// Running reports whether the node is currently serving.
func (n *Node) Running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running
}

// stopLocked claims the stopped state and returns the server to tear
// down plus the sweeper handles to reap. ok is false when the node was
// not running.
func (n *Node) stopLocked() (srv *http.Server, cancel context.CancelFunc, done chan struct{}, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.running {
		return nil, nil, nil, false
	}
	n.running = false
	srv = n.httpSrv
	cancel, done = n.sweepCancel, n.sweepDone
	n.sweepCancel, n.sweepDone = nil, nil
	return srv, cancel, done, true
}

// Stop gracefully drains the node: it withdraws from the membership,
// stops the repair sweeper, and lets in-flight requests finish until
// ctx expires. The node can Start again later.
func (n *Node) Stop(ctx context.Context) error {
	srv, cancel, done, ok := n.stopLocked()
	if !ok {
		return nil
	}
	n.registry.SetOnline(n.cfg.Node, false)
	reapSweeper(cancel, done)
	// Shutdown under an expired context only starts the drain: it closes
	// the listener and the idle keep-alive connections and turns
	// keep-alives off, so each in-flight request's connection closes
	// once its response is flushed. Quiesce does the waiting; Shutdown
	// would also wait 5 s on every dialed but never-used connection.
	expired, expire := context.WithCancel(ctx)
	expire()
	_ = srv.Shutdown(expired)
	err := n.Quiesce(ctx)
	_ = srv.Close()
	n.relay.closeIdle()
	// With the listener drained no new stripes can arrive: whatever
	// upload sessions remain are half-finished and must not leave temp
	// files behind.
	n.abortUploads()
	return err
}

// Quiesce waits until the node has no request in flight, or ctx
// expires. A request stays in flight from the moment it is read until
// its response is flushed and its connection goes idle or closes —
// after the handler's epilogue, where spills commit, segments are
// adopted, and hit counters are bumped, all of which can trail the
// client reading EOF. Tests call it before reading counters.
func (n *Node) Quiesce(ctx context.Context) error { return n.inflight.wait(ctx) }

// inflight counts the connections with a request in flight, fed by the
// http.Server ConnState hook (an HTTP/1.1 connection carries one
// request at a time). Waiters block on a channel closed when the count
// reaches zero — no polling.
type inflight struct {
	mu     sync.Mutex
	active map[net.Conn]struct{}
	idle   chan struct{} // made by the first waiter, closed at zero
}

func (t *inflight) connState(c net.Conn, st http.ConnState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st == http.StateActive {
		if t.active == nil {
			t.active = make(map[net.Conn]struct{})
		}
		t.active[c] = struct{}{}
		return
	}
	if _, ok := t.active[c]; !ok {
		return // a connection closing before or between requests
	}
	delete(t.active, c)
	if len(t.active) == 0 && t.idle != nil {
		close(t.idle)
		t.idle = nil
	}
}

func (t *inflight) wait(ctx context.Context) error {
	t.mu.Lock()
	if len(t.active) == 0 {
		t.mu.Unlock()
		return nil
	}
	if t.idle == nil {
		t.idle = make(chan struct{})
	}
	idle := t.idle
	t.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Crash kills the node the way a failing member dies: the listener and
// every active connection close immediately, and nothing is announced —
// the registry still lists the member online until a peer's failure
// detector notices. The node can Start again later, as a contributor's
// machine comes back.
func (n *Node) Crash() {
	srv, cancel, done, ok := n.stopLocked()
	if !ok {
		return
	}
	n.Metrics.ChurnKills.Inc()
	reapSweeper(cancel, done)
	_ = srv.Close()
	n.relay.closeIdle()
	// Connections are dead; in-flight stripes error out on their own and
	// the rest of the session state is garbage now.
	n.abortUploads()
}

// reapSweeper cancels a node's sweeper goroutine and waits for it to
// exit, so Stop/Crash never leak a prober still dialing peers.
func reapSweeper(cancel context.CancelFunc, done chan struct{}) {
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// readoptReplicas re-registers the datasets this node still holds after
// a restart: committed disk-volume files and repository records survive
// a crash (the simulator's Node object persists; on a real machine the
// volume's recovery scan plays this role), but the catalog may have
// been repaired around the dead member in the meantime. AddReplica
// failures (most commonly "already replicates", e.g. the origin copy
// that is never deregistered) are expected outcomes.
func (n *Node) readoptReplicas() {
	seen := make(map[storage.DatasetID]bool)
	var ids []storage.DatasetID
	for _, id := range n.vol.IDs() {
		// Segment entries are pieces, not replicas: holding some
		// segments of a dataset is never a catalog claim to hold it.
		if _, _, isSeg := storage.ParseSegmentKey(id); isSeg {
			continue
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	n.repoMu.Lock()
	held := append(n.repo.ReplicaIDs(), n.repo.UserIDs()...)
	n.repoMu.Unlock()
	for _, id := range held {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	now := n.now()
	for _, id := range ids {
		bytes, err := n.catalog.DatasetBytes(id)
		if err != nil {
			continue // not catalogued (anymore): nothing to re-adopt
		}
		n.repoMu.Lock()
		if !n.repo.HasLocal(id) {
			// A volume file without a repository record (the record was
			// evicted, the file survived): restore the accounting.
			_ = n.repo.StoreReplica(id, bytes, now)
		}
		n.repoMu.Unlock()
		if err := n.catalog.AddReplica(id, n.cfg.Node, now); err == nil {
			n.Metrics.RepairReadoptedReplicas.Inc()
		}
	}
}

// Volume returns the node's disk-backed replica volume.
func (n *Node) Volume() *storage.DiskVolume { return n.vol }

// Manifest returns the dataset's recorded content manifest, if any.
func (n *Node) Manifest(id storage.DatasetID) (*ingest.Manifest, bool) {
	return n.manifests.Get(id)
}

// dropLocal withdraws this node's claim to hold the dataset: repository
// record and catalog announcement both go (best effort — an origin copy
// the allocation layer refuses to deregister stays announced). Used
// when a local copy turns out to be unservable, e.g. an opaque
// dataset's volume file is gone and regeneration is impossible.
func (n *Node) dropLocal(id storage.DatasetID) {
	n.repoMu.Lock()
	_ = n.repo.DropReplica(id)
	n.repoMu.Unlock()
	_ = n.catalog.RemoveReplica(id, n.cfg.Node)
}

// RepoStats snapshots the node's repository statistics.
func (n *Node) RepoStats() storage.Stats {
	n.repoMu.Lock()
	defer n.repoMu.Unlock()
	return n.repo.Stats()
}

// hasLocal reports whether the repository holds the dataset, refreshing
// recency on hit.
func (n *Node) hasLocal(id storage.DatasetID) bool {
	n.repoMu.Lock()
	defer n.repoMu.Unlock()
	_, ok := n.repo.Read(id, n.now())
	return ok
}

// cachePulled stores a successfully proxied dataset in the replica
// partition and registers the replica in the catalog. Failures (partition
// full, concurrent duplicate) are expected outcomes, not errors.
func (n *Node) cachePulled(id storage.DatasetID, bytes int64) {
	n.repoMu.Lock()
	err := n.repo.StoreReplica(id, bytes, n.now())
	n.repoMu.Unlock()
	if err != nil {
		return
	}
	if err := n.catalog.AddReplica(id, n.cfg.Node, n.now()); err != nil {
		// Catalog refused (e.g. racing fetch already registered us):
		// drop the local copy so repository and catalog stay consistent.
		n.repoMu.Lock()
		_ = n.repo.DropReplica(id)
		n.repoMu.Unlock()
	}
}

// suspectTable tracks consecutive failed health probes per member. A
// member with any recent failure is "suspect" (skipped by the fetch
// path's candidate ordering); one that fails SweeperConfig.FailThreshold
// probes in a row is declared dead and deregistered from the registry.
type suspectTable struct {
	mu    sync.Mutex
	fails map[allocation.NodeID]int
}

// noteFailure records one failed probe and returns the consecutive
// count.
func (s *suspectTable) noteFailure(node allocation.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails == nil {
		s.fails = make(map[allocation.NodeID]int)
	}
	s.fails[node]++
	return s.fails[node]
}

// noteSuccess clears a member's failure streak, reporting whether it had
// one (a recovery).
func (s *suspectTable) noteSuccess(node allocation.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails[node] == 0 {
		return false
	}
	delete(s.fails, node)
	return true
}

// isSuspect reports whether the member's last probe failed.
func (s *suspectTable) isSuspect(node allocation.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fails[node] > 0
}

// count returns how many members are currently suspect.
func (s *suspectTable) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fails)
}

// Suspect reports whether this node's failure detector currently
// suspects the member (test and inspection hook).
func (n *Node) Suspect(node allocation.NodeID) bool { return n.suspects.isSuspect(node) }
