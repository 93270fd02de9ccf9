package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"time"

	"scdn/internal/ingest"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// SweeperConfig tunes a node's background repair sweeper: the loop that
// probes fellow members, deregisters the dead, re-replicates
// under-replicated datasets onto survivors, and re-admits members that
// come back. Defaults are deliberately conservative on loopback: a
// member is declared dead only after FailThreshold consecutive probes
// each time out at ProbeTimeout, so a node that is merely slow is
// skipped as a suspect (fetch-path candidate ordering) long before it is
// deregistered, and a spurious deregistration heals itself on the next
// successful probe.
type SweeperConfig struct {
	// Disabled turns the sweeper off entirely (tests that want full
	// control over membership).
	Disabled bool
	// Interval is the base sweep period; each cycle adds up to 50%
	// deterministic per-node jitter so a cluster's sweepers do not beat
	// in phase. Default 500ms.
	Interval time.Duration
	// ProbeTimeout bounds one /healthz probe. Default 1s.
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count at which a member
	// is declared dead and deregistered. Default 3.
	FailThreshold int
	// ReplicationTarget is the live-copy floor the repair phase restores
	// per dataset, capped by how many members are actually alive.
	// Default 2.
	ReplicationTarget int
}

func (c *SweeperConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReplicationTarget <= 0 {
		c.ReplicationTarget = 2
	}
}

// runSweeper is the node's repair loop. It exits when ctx is canceled
// (Stop/Crash) and signals done so teardown can wait for it — a stopped
// node must not keep probing peers from the grave.
func (n *Node) runSweeper(ctx context.Context, done chan struct{}) {
	defer close(done)
	// Deterministic per-node jitter: nodes de-phase from each other, runs
	// stay reproducible.
	rng := rand.New(rand.NewSource(int64(n.cfg.Node)))
	st := newSweepState()
	for {
		jitter := time.Duration(rng.Int63n(int64(n.cfg.Sweep.Interval)/2 + 1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(n.cfg.Sweep.Interval + jitter):
		}
		n.sweepOnce(ctx, st)
	}
}

// sweepState is what one sweeper goroutine, and it alone, carries from
// sweep to sweep: below counts the consecutive sweeps each dataset has
// been seen under its floor (repairDataset's fallback), and view, ids
// and holders are the scratch slices the live view, a shard's dataset
// IDs and each dataset's holder IDs are read into.
type sweepState struct {
	below   map[storage.DatasetID]int
	view    []storage.NodeID
	ids     []storage.DatasetID
	holders []storage.NodeID
}

func newSweepState() *sweepState {
	return &sweepState{below: make(map[storage.DatasetID]int)}
}

// sweepOnce runs one repair cycle: probe membership, expire abandoned
// upload sessions, repair replication, publish detector state.
func (n *Node) sweepOnce(ctx context.Context, st *sweepState) {
	n.Metrics.RepairSweeps.Inc()
	n.probeMembers(ctx)
	if ctx.Err() != nil {
		return
	}
	n.expireUploads()
	n.repairReplication(ctx, st)
	n.Metrics.SuspectNodes.Set(float64(n.suspects.count()))
}

// probeMembers health-checks every fellow edge (members with an HTTP
// endpoint). A failed probe marks the member suspect; FailThreshold
// consecutive failures deregister it from the registry so resolution
// stops routing clients to a corpse. A successful probe clears suspicion
// and re-admits a member that was (perhaps spuriously) deregistered —
// restarted nodes also re-admit themselves on Start, so this path covers
// false positives and members that recover in place.
func (n *Node) probeMembers(ctx context.Context) {
	for _, m := range n.registry.snapshot() {
		if m.Node == n.cfg.Node || m.BaseURL == "" {
			continue
		}
		if ctx.Err() != nil {
			return // stopping: a canceled probe is not evidence of death
		}
		if err := n.probe(ctx, m.BaseURL); err != nil {
			if ctx.Err() != nil {
				return
			}
			n.Metrics.ProbeFailures.Inc()
			fails := n.suspects.noteFailure(m.Node, m.BaseURL)
			if fails == n.cfg.Sweep.FailThreshold && m.Online {
				n.registry.SetOnline(m.Node, false)
				n.Metrics.RepairDeadMembers.Inc()
				// Free the dead member's replica slots for repair
				// (MaxReplicas must not fill with corpses). Its origin
				// records stay: the owner's data comes back with the
				// owner, and reconcileVolume re-announces whatever a
				// restarted member's volume replays from disk.
				n.catalog.dropHolder(m.Node)
			}
			continue
		}
		n.suspects.noteSuccess(m.Node)
		if !n.registry.Online(m.Node) {
			n.registry.SetOnline(m.Node, true)
			n.Metrics.RepairReadmissions.Inc()
		}
	}
}

// probe sends one GET /healthz to the member at base over the relay,
// bounded by ProbeTimeout, and pools the connection the way a fetch hop
// does: only an answer read cleanly to its end returns it to the pool.
func (n *Node) probe(ctx context.Context, base string) error {
	pctx, cancel := context.WithTimeout(ctx, n.cfg.Sweep.ProbeTimeout)
	defer cancel()
	q := relayRequest{method: http.MethodGet, path: "/healthz", peer: n.srcID}
	rc, resp, err := n.relay.roundTrip(pctx, strings.TrimPrefix(base, "http://"), &q)
	if err != nil {
		return err
	}
	rc.release(drainBody(resp.Body) && !resp.Close)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz returned %s", resp.Status)
	}
	return nil
}

// repairReplication restores every dataset's live-copy floor after
// members die, and acts on the catalog's demand recommendations
// (two-phase: sweep, place, then acknowledge — a sweeper that dies
// mid-repair drops no work, the next cycle sees the same demand). A
// node only ever copies onto itself: each missing copy goes to the
// live non-holder that rendezvous hashing elects (designated), whose
// own sweeper makes it, so racing sweepers do not overshoot.
func (n *Node) repairReplication(ctx context.Context, st *sweepState) {
	view := n.liveView(st)
	// Live copies can't exceed live members; don't chase an impossible
	// floor while most of the cluster is down.
	target := min(n.cfg.Sweep.ReplicationTarget, len(view))
	for i := 0; i < n.catalog.ShardCount(); i++ {
		st.ids = n.catalog.appendIDs(st.ids[:0], i)
		for _, id := range st.ids {
			if ctx.Err() != nil {
				return
			}
			n.repairDataset(ctx, id, target, view, st)
		}
	}
	// Demand-driven placement rides the same loop: hot datasets get one
	// more replica here (this node volunteering), then the observed
	// demand is acknowledged.
	hot := n.catalog.MaintenanceSweep()
	var handled []HotDataset
	for _, h := range hot {
		if ctx.Err() != nil {
			break
		}
		if n.replicateLocal(ctx, h.ID) {
			handled = append(handled, h)
		}
	}
	n.catalog.AckSweep(handled)
}

// isLive reports whether this node believes a member alive: online in
// the registry and not suspect at its current endpoint. The fetch path,
// resolve and repair all read membership through it.
func (n *Node) isLive(node storage.NodeID) bool {
	m, ok := n.registry.snapshot()[node]
	return ok && n.memberLive(m)
}

func (n *Node) memberLive(m Member) bool {
	return m.Online && !n.suspects.isSuspect(m.Node, m.BaseURL)
}

// liveView lists into st.view, in no particular order, the members
// this node believes alive: itself, then every fellow edge that is
// live and has an endpoint.
func (n *Node) liveView(st *sweepState) []storage.NodeID {
	st.view = append(st.view[:0], n.cfg.Node)
	for _, m := range n.registry.snapshot() {
		if m.Node != n.cfg.Node && m.BaseURL != "" && n.memberLive(m) {
			st.view = append(st.view, m.Node)
		}
	}
	return st.view
}

// repairDataset copies one dataset onto this node when it is below the
// floor and this node is designated to close the gap. A dataset at its
// floor costs one read of its holders into the sweep's scratch slice
// and one count of the live ones, after the catalog lock is released:
// no allocation, no sort, no ranking.
func (n *Node) repairDataset(ctx context.Context, id storage.DatasetID, target int,
	view []storage.NodeID, st *sweepState) {
	st.holders = n.catalog.AppendHolders(st.holders[:0], id)
	live := 0
	for _, h := range st.holders {
		if n.isLive(h) {
			live++
		}
	}
	if live >= target {
		delete(st.below, id)
		return
	}
	st.below[id]++
	// The fallback's patience is the failure detector's: a designee
	// that has not closed the gap in FailThreshold sweeps is treated
	// like a member that failed as many probes.
	if designated(id, n.cfg.Node, view, st.holders, target, st.below[id], n.cfg.Sweep.FailThreshold) {
		n.replicateLocal(ctx, id)
	}
}

// designated reports whether node self should copy dataset id onto
// itself. view is self's live membership (self included), holders the
// catalog's holders in any order, target the live-copy floor. Every
// member of view is ranked by hrwScore; walking that order and skipping
// the holders in view, the first target−live non-holders are
// designated, so members that share a view agree on who copies without
// talking. Views differ while suspicion converges and a designee can
// fail to copy, so once self has seen the dataset under its floor for
// more than patience consecutive sweeps (belowFor), any live non-holder
// copies.
func designated(id storage.DatasetID, self storage.NodeID, view []storage.NodeID,
	holders []storage.NodeID, target, belowFor, patience int) bool {
	if slices.Contains(holders, self) {
		return false
	}
	live, ahead := 0, 0
	mine := hrwScore(id, self)
	for _, m := range view {
		switch s := hrwScore(id, m); {
		case slices.Contains(holders, m):
			live++
		case m != self && (s > mine || s == mine && m < self):
			ahead++ // a non-holder that outranks self
		}
	}
	return live < target && (ahead < target-live || belowFor > patience)
}

// hrwScore is a member's rendezvous (highest-random-weight) score for a
// dataset: FNV-1a-64 over the dataset ID and the node's eight
// little-endian bytes, then murmur3's 64-bit finaliser so that members
// with neighbouring IDs do not rank in step. It is a fixed function —
// unlike hash/maphash, whose seed differs per process — so every node
// ranks alike.
func hrwScore(id storage.DatasetID, node storage.NodeID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) // FNV-1a-64 offset basis
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime
	}
	for v, i := uint64(node), 0; i < 8; v, i = v>>8, i+1 {
		h = (h ^ v&0xff) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// replicateLocal restores a copy of the dataset on this node and
// announces it to the catalog. Seeded datasets re-materialize through
// the deterministic generator; opaque (uploaded) datasets have no
// generator, so their repair is a real byte transfer from a surviving
// holder (replicateByCopy). Reports whether this node now newly counts
// as a holder; losing the AddReplica race to another repairer is a
// normal outcome, not a failure.
func (n *Node) replicateLocal(ctx context.Context, id storage.DatasetID) bool {
	if man, ok := n.manifests.Opaque(id); ok {
		return n.replicateByCopy(ctx, id, man)
	}
	size, _ := n.catalog.DatasetBytes(id) // id came from the catalog, which removes no record
	// Best effort: if the disk is full the generator fallback still
	// serves the bytes, so the replica is real either way. A segmented
	// dataset derives its segments on first fetch, as at its origin.
	if !n.segmented(size) {
		_ = n.materialize(id, id, 0, size)
	}
	if err := n.catalog.AddReplica(id, n.cfg.Node); err != nil {
		return false // already announced (origin copy or racing repairer)
	}
	n.Metrics.RepairReplicasRestored.Inc()
	n.Metrics.IngestRepairRegenerated.Inc()
	return true
}

// replicateByCopy restores an opaque dataset's replica by moving real
// bytes: the whole dataset, pulled as a peer hop from the nearest live
// holder through the fetch path's own candidate loop and relay
// (pullFromPeers), into a flat spill verified block by block against
// the manifest. Only a complete, verified file commits and is
// announced; a cut or corrupt stream aborts its spill, and the next
// candidate or the next sweep retries.
func (n *Node) replicateByCopy(ctx context.Context, id storage.DatasetID, man *ingest.Manifest) bool {
	// Every login leaves a session behind, so a dataset with no live
	// holder to copy from costs none.
	if reps, err := n.catalog.Replicas(id); err != nil || len(n.orderCandidates(reps)) == 0 {
		return false // the next sweep retries
	}
	tok, err := n.auth.Login(socialnet.UserID(n.cfg.Node))
	if err != nil {
		n.Metrics.RepairFailures.Inc()
		return false
	}
	pull := peerPull{relayRequest: relayRequest{method: http.MethodGet, path: fetchPath(id),
		auth: "Bearer " + string(tok), peer: n.srcID}, status: http.StatusOK, length: man.Size}
	_, err = n.pullFromPeers(ctx, id, &pull, func(_ storage.NodeID, _ *relayConn, resp *http.Response) (bool, error) {
		sink := &spillWriter{n: n, id: id, man: man, total: man.Size, piece: man.Size, end: man.Size}
		_, err := copyBuffered(sink, resp.Body)
		if flat, _ := sink.finish(); !flat && err == nil {
			err = sink.err
		}
		return err == nil, err
	})
	if err != nil {
		// No live holder to copy from is not a failure: the next sweep
		// retries.
		if ctx.Err() == nil && !errors.Is(err, errNoLiveHolder) {
			n.Metrics.RepairFailures.Inc()
		}
		return false
	}
	n.Metrics.IngestRepairCopies.Inc()
	n.Metrics.IngestRepairCopyBytes.Add(uint64(man.Size))
	if err := n.catalog.AddReplica(id, n.cfg.Node); err != nil {
		return false // already announced (racing repairer); the bytes stay
	}
	n.Metrics.RepairReplicasRestored.Inc()
	return true
}
