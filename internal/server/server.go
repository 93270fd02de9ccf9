// Package server is the S-CDN's live delivery plane: a network-facing
// HTTP allocation/edge server over its own sharded catalog (the
// allocation servers of Section V-B), researcher-contributed storage
// (Section V-A, one disk volume per edge), and the social middleware's
// authentication and group-scoped authorization (Section V-C), behind a
// concurrent API. The catalog is the one record of which node holds a
// dataset; the node's volume holds the bytes. Each Node is
// simultaneously an allocation endpoint (it resolves requests against
// the shared catalog) and an edge repository (it serves
// dataset bytes, falling back to a peer edge with bounded retry and
// exponential backoff when it does not hold the data locally).
//
// Nodes are member-contributed and carry no uptime SLA: they can be
// stopped (graceful drain), crashed (hard close, no goodbye), and
// started again. Every start replays the node's volume from disk, so
// a restarted member holds what its disk recorded. A background repair
// sweeper per node (sweeper.go) detects dead members by failed health
// probes and deregisters them.
// Each missing copy of an under-replicated dataset is pulled by the one
// live non-holder that rendezvous hashing elects, onto itself; no node
// asks another to take a copy. The stepped churn test drives the loop
// slot by slot through seeded availability traces, and scdn-serve
// -churn-script kills and restarts nodes of a running cluster.
//
// A node reaches its peers one way: its relay (relay.go). Fetch hops,
// repair copies and health probes are all requests over it, and every
// byte a node adopts from a peer — pull-through or repair — goes
// through one verifying sink (spillWriter) before it commits.
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

	"scdn/internal/ingest"
	"scdn/internal/middleware"
	"scdn/internal/storage"
)

// Config parameterizes one node.
type Config struct {
	// Node is this edge's participant ID (its repository owner).
	Node storage.NodeID
	// ListenAddr is the TCP address to bind ("127.0.0.1:0" for an
	// ephemeral port).
	ListenAddr string
	// PullThrough spills successfully proxied datasets into the local
	// volume and registers the new replica in the catalog, so demand
	// migrates data toward where it is requested.
	PullThrough bool
	// StoreDir and StoreQuota name the node's disk-backed replica
	// volume (both required). Every Start opens it from StoreDir and
	// replays its log; Stop and Crash close it. Held datasets are
	// served by seek + sendfile, and pull-through spills to it.
	StoreDir   string
	StoreQuota int64
	// Sweep configures the node's background repair sweeper
	// (sweeper.go). The zero value enables it with defaults; set
	// Sweep.Disabled to run without one.
	Sweep SweeperConfig
	// Manifests is the cluster's shared content-address index (dataset →
	// manifest: an upload's verified manifest, or a seeded dataset's
	// derivation, hashed on first use). Required: clusters share one the
	// same way they share the catalog, so every node sees every upload.
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
}

// Node is one running allocation/edge server.
type Node struct {
	cfg      Config
	auth     *middleware.Middleware
	catalog  *Catalog
	registry *Registry
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

	// suspects is the node's local failure-detector state: members whose
	// last health probe failed. The fetch path skips suspects before the
	// registry has deregistered them (sweeper.go).
	suspects suspectTable

	// relay is the node's one client for its peers: fetch hops, repair
	// copies and health probes (relay.go).
	relay relayPool

	// inflight tracks the requests the node's connections are serving
	// (Quiesce).
	inflight inflight

	// life serializes Start with the teardown, so at most one volume
	// over StoreDir is open at a time. No handler or sweeper takes it,
	// so the teardown may wait for them while holding it. vol is the
	// volume Start opened: only Start writes it, before it serves, and
	// the teardown closes it only after the last handler has returned,
	// so the fetch path reads it as a plain field.
	life        sync.Mutex
	vol         *storage.DiskVolume
	mu          sync.Mutex
	httpSrv     *http.Server // fresh per Start: a shut-down http.Server cannot serve again
	started     time.Time
	baseURL     string
	running     bool
	everStarted bool
	served      chan struct{} // closed when the Serve goroutine returns
	sweepCancel context.CancelFunc
	sweepDone   chan struct{}
}

// NewNode wires a node over shared serving-plane state. All
// collaborators (cfg.Manifests among them), cfg.StoreDir and a positive
// cfg.StoreQuota are required.
func NewNode(cfg Config, auth *middleware.Middleware,
	catalog *Catalog, registry *Registry) (*Node, error) {
	if auth == nil || catalog == nil || registry == nil || cfg.Manifests == nil {
		return nil, errors.New("server: missing collaborator")
	}
	if cfg.StoreDir == "" || cfg.StoreQuota <= 0 {
		return nil, fmt.Errorf("server: node %d needs a store directory and a positive quota", cfg.Node)
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	cfg.Sweep.applyDefaults()
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
		auth:      auth,
		catalog:   catalog,
		registry:  registry,
		srcID:     strconv.FormatInt(int64(cfg.Node), 10),
		srcHdr:    []string{strconv.FormatInt(int64(cfg.Node), 10)},
		Metrics:   &Metrics{},
		manifests: cfg.Manifests,
		uploads:   make(map[storage.DatasetID]*uploadSession),
	}
	return n, nil
}

// ID returns the node's participant ID.
func (n *Node) ID() storage.NodeID { return n.cfg.Node }

// Start binds the listener, opens the node's volume from its
// directory (replaying its log), serves in a background goroutine,
// publishes the node's endpoint and liveness in the registry,
// reconciles the replayed volume with the catalog (reconcileVolume),
// re-announcing the whole replicas it keeps, and (when enabled)
// launches the repair sweeper. Every start takes this one path: a
// first start over an empty directory adopts nothing, and a start
// after Stop or Crash comes back on a fresh ephemeral port with what
// the disk recorded, as a contributor's machine does.
func (n *Node) Start() error {
	tl, err := net.Listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", n.cfg.ListenAddr, err)
	}
	ln := sameHostListener{tl}
	n.life.Lock()
	defer n.life.Unlock()
	var vol *storage.DiskVolume
	if n.Running() {
		err = errors.New("server: already started")
	} else {
		vol, err = storage.NewDiskVolume(n.cfg.StoreDir, n.cfg.StoreQuota)
	}
	if err != nil {
		return errors.Join(err, ln.Close())
	}
	// A shut-down or closed http.Server is spent; every start gets a
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
	n.everStarted, n.running = true, true
	n.vol = vol
	n.httpSrv = srv
	n.started = time.Now()
	n.baseURL = baseURL
	served := make(chan struct{})
	n.served = served
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
	n.reconcileVolume()
	go func() {
		defer close(served)
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

// sameHostSendBuffer is the send buffer of an accepted connection
// whose peer is on this host (Linux doubles it). On a path with no wire
// the kernel autotunes the buffer up to tcp_wmem's ceiling (4 MiB), so
// an edge streaming a large body sits in sendfile calls that each move
// about a MiB, and another request's answer, already written, reaches
// its client ~0.3 ms late. Of 64 KiB to 1 MiB, 128 KiB measured best.
const sameHostSendBuffer = 128 << 10

// sameHostListener bounds the send buffer of every accepted connection
// whose peer is on this host. Every body an edge sends — a client's
// response, a peer hop, a repair copy — goes out on a connection it
// accepted, so this one place covers them all. Any other connection
// keeps the kernel's autotuning, which sizes a real path's buffer to its
// bandwidth-delay product.
type sameHostListener struct{ net.Listener }

func (l sameHostListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		if remote, _ := tc.RemoteAddr().(*net.TCPAddr); remote != nil && sameHost(remote.IP) {
			// On failure the connection keeps autotuning, which is
			// slower here but correct.
			_ = tc.SetWriteBuffer(sameHostSendBuffer)
		}
	}
	return c, err
}

// sameHost reports whether a connection's peer is on this host as far
// as the bound was measured: a loopback address. A peer that dialled
// this host's own non-loopback address is on this host too, but no run
// has measured that path, so it keeps autotuning.
func sameHost(remote net.IP) bool {
	return remote.IsLoopback()
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

// Stop gracefully drains the node: it withdraws from the membership,
// stops the repair sweeper, and lets in-flight requests finish until
// ctx expires, then closes its volume. The node can Start again later.
func (n *Node) Stop(ctx context.Context) error { return n.halt(ctx, true) }

// Crash kills the node the way a failing member dies: the listener and
// every active connection close immediately, and nothing is announced —
// the registry still lists the member online until a peer's failure
// detector notices. The node can Start again later and replays its
// volume, as a contributor's machine comes back.
func (n *Node) Crash() { _ = n.halt(context.Background(), false) }

// halt is the one teardown behind Stop and Crash, which differ only in
// whether the member withdraws from the registry and whether in-flight
// requests drain or are cut. Either way it returns only after every
// handler has returned; then it aborts the upload sessions and closes
// the volume. Close writes nothing, so an uncommitted spill is lost
// just as a killed process loses it.
func (n *Node) halt(ctx context.Context, graceful bool) error {
	n.life.Lock()
	defer n.life.Unlock()
	n.mu.Lock()
	srv, served, cancel, done, running := n.httpSrv, n.served, n.sweepCancel, n.sweepDone, n.running
	n.running = false
	n.sweepCancel, n.sweepDone = nil, nil
	n.mu.Unlock()
	if !running {
		return nil
	}
	if graceful {
		n.registry.SetOnline(n.cfg.Node, false)
	} else {
		n.Metrics.ChurnKills.Inc()
	}
	if cancel != nil {
		cancel()
		<-done // no prober left dialing peers
	}
	var err error
	if graceful {
		// Shutdown under an expired context only starts the drain: it
		// closes the listener and the idle keep-alive connections and
		// turns keep-alives off, so each in-flight request's connection
		// closes once its response is flushed. Quiesce does the
		// waiting; Shutdown would also wait 5 s on every dialed but
		// never-used connection.
		expired, expire := context.WithCancel(ctx)
		expire()
		_ = srv.Shutdown(expired)
		err = n.Quiesce(ctx)
	}
	_ = srv.Close()
	<-served
	// Every connection is closed, so a handler still running fails its
	// next read or write and returns: this wait is bounded.
	_ = n.Quiesce(context.Background())
	n.relay.closeIdle()
	// No stripe can arrive any more: the sessions left are
	// half-finished and must not leave temp extents behind.
	n.abortUploads()
	return errors.Join(err, n.vol.Close())
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

// reconcileVolume squares what replaying this node's volume adopted
// with the catalog, before the node serves. An entry the catalog
// cannot place is removed: its dataset is unknown (an old process's
// upload, whose catalog record died with that process), a whole
// replica's size differs from the catalog's, or a segment does not fit
// this node's layout (the dataset is unsegmented here, the ordinal is
// out of range, or the size is not the segment's extent). Every writer
// commits exact extents, so from then on no entry has the wrong size.
// The whole replicas left are re-registered — the volume's log is the
// only record that survives a crash — since the catalog may have been
// repaired around the dead member in the meantime. AddReplica failures
// (most commonly "already replicates", e.g. the origin copy that is
// never deregistered) are expected outcomes.
func (n *Node) reconcileVolume() {
	for _, key := range n.vol.IDs() {
		_, _, size, _ := n.vol.Locate(key)
		id, seg, isSeg := storage.ParseSegmentKey(key)
		if !isSeg {
			id = key
		}
		total, err := n.catalog.DatasetBytes(id)
		switch {
		case err != nil:
		case isSeg:
			// Segment entries are pieces, not replicas: holding some
			// segments of a dataset is never a catalog claim to hold it.
			if n.segmented(total) && size == storage.SegmentExtent(total, n.cfg.SegmentSize, seg) {
				continue
			}
		case size == total:
			if n.catalog.AddReplica(id, n.cfg.Node) == nil {
				n.Metrics.RepairReadoptedReplicas.Inc()
			}
			continue
		}
		n.vol.Remove(key)
	}
}

// Volume returns the volume the node's last Start opened (closed once
// the node stops or crashes; nil before the first Start).
func (n *Node) Volume() *storage.DiskVolume {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vol
}

// suspectTable tracks consecutive failed health probes per member. A
// member with any recent failure is "suspect" (skipped by the fetch
// path's candidate ordering); one that fails SweeperConfig.FailThreshold
// probes in a row is declared dead and deregistered from the registry.
// A streak belongs to the endpoint it was probed at: a member that
// restarts registers a fresh endpoint, which no failed probe has seen.
type suspectTable struct {
	mu    sync.Mutex
	fails map[storage.NodeID]suspicion
}

// suspicion is a member's failure streak at one endpoint.
type suspicion struct {
	url   string
	count int
}

// noteFailure records one failed probe of the member at url and
// returns the consecutive count there.
func (s *suspectTable) noteFailure(node storage.NodeID, url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails == nil {
		s.fails = make(map[storage.NodeID]suspicion)
	}
	f := s.fails[node]
	if f.url != url {
		f = suspicion{url: url}
	}
	f.count++
	s.fails[node] = f
	return f.count
}

// noteSuccess clears a member's failure streak.
func (s *suspectTable) noteSuccess(node storage.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.fails, node)
}

// isSuspect reports whether the member's last probe at url failed.
func (s *suspectTable) isSuspect(node storage.NodeID, url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.fails[node]
	return ok && f.url == url
}

// count returns how many members are currently suspect.
func (s *suspectTable) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fails)
}
