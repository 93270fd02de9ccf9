package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/cdnclient"
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
	for {
		jitter := time.Duration(rng.Int63n(int64(n.cfg.Sweep.Interval)/2 + 1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(n.cfg.Sweep.Interval + jitter):
		}
		n.sweepOnce(ctx)
	}
}

// sweepOnce runs one repair cycle: probe membership, expire abandoned
// upload sessions, repair replication, publish detector state.
func (n *Node) sweepOnce(ctx context.Context) {
	n.Metrics.RepairSweeps.Inc()
	n.probeMembers(ctx)
	if ctx.Err() != nil {
		return
	}
	n.expireUploads()
	n.repairReplication(ctx)
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
	for _, m := range n.registry.Members() {
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
			fails := n.suspects.noteFailure(m.Node)
			if fails == n.cfg.Sweep.FailThreshold && m.Online {
				n.registry.SetOnline(m.Node, false)
				n.Metrics.RepairDeadMembers.Inc()
				n.purgeDeadMember(m.Node)
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

// purgeDeadMember removes a dead member's replica records from the
// catalog so the slots free up for repair (MaxReplicas must not fill
// with corpses). Origin records survive — the allocation layer refuses
// to remove an owner's copy — which is exactly right: the owner's data
// comes back with the owner, and readoptReplicas re-announces whatever
// a restarted member still holds on disk.
func (n *Node) purgeDeadMember(dead allocation.NodeID) {
	ids, err := n.catalog.Datasets()
	if err != nil {
		return
	}
	for _, id := range ids {
		reps, err := n.catalog.Replicas(id)
		if err != nil {
			continue
		}
		for _, r := range reps {
			if r.Node == dead {
				// Errors (origin copy, racing purge) are expected outcomes.
				_ = n.catalog.RemoveReplica(id, dead)
				break
			}
		}
	}
}

// probe issues one bounded /healthz request.
func (n *Node) probe(ctx context.Context, base string) error {
	pctx, cancel := context.WithTimeout(ctx, n.cfg.Sweep.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	drainBody(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz returned %s", resp.Status)
	}
	return nil
}

// repairReplication restores every dataset's live-copy floor after
// members die, and acts on the catalog's demand recommendations
// (two-phase: sweep, place, then acknowledge — a sweeper that dies
// mid-repair drops no work, the next cycle sees the same demand). Each
// node repairs onto itself first — no coordination needed, AddReplica
// deduplicates racing repairers — and asks one surviving non-holder
// peer (POST /v1/replicate) when it already holds the data.
func (n *Node) repairReplication(ctx context.Context) {
	peers := n.livePeers()
	// Live copies can't exceed live members; don't chase an impossible
	// floor while most of the cluster is down.
	target := n.cfg.Sweep.ReplicationTarget
	if alive := len(peers) + 1; alive < target { // +1: this node
		target = alive
	}
	ids, err := n.catalog.Datasets()
	if err != nil {
		return
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			return
		}
		n.repairDataset(ctx, id, target, peers)
	}
	// Demand-driven placement rides the same loop: hot datasets get one
	// more replica here (this node volunteering), then the observed
	// demand is acknowledged.
	hot := n.catalog.MaintenanceSweep()
	var handled []allocation.HotDataset
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

// livePeers lists fellow edges currently believed alive: online in the
// registry, not suspect, with an endpoint.
func (n *Node) livePeers() []Member {
	var out []Member
	for _, m := range n.registry.Members() {
		if m.Node == n.cfg.Node || m.BaseURL == "" || !m.Online || n.suspects.isSuspect(m.Node) {
			continue
		}
		out = append(out, m)
	}
	return out
}

// repairDataset brings one dataset back to the live-copy floor.
func (n *Node) repairDataset(ctx context.Context, id storage.DatasetID, target int, peers []Member) {
	reps, err := n.catalog.Replicas(id)
	if err != nil {
		return
	}
	holders := make(map[allocation.NodeID]bool, len(reps))
	live := 0
	for _, r := range reps {
		holders[r.Node] = true
		if n.registry.Online(r.Node) && !n.suspects.isSuspect(r.Node) {
			live++
		}
	}
	if live >= target {
		return
	}
	need := target - live
	if !holders[n.cfg.Node] {
		if n.replicateLocal(ctx, id) {
			need--
		}
	}
	for _, m := range peers {
		if need <= 0 {
			return
		}
		if holders[m.Node] {
			continue
		}
		if n.requestPeerReplica(ctx, m.BaseURL, id) {
			need--
		}
	}
}

// replicateLocal restores a copy of the dataset on this node and
// announces it to the catalog. Seeded datasets re-materialize through
// the deterministic generator; opaque (uploaded) datasets have no
// generator, so their repair is a real byte transfer — a striped,
// manifest-verified range download from surviving holders
// (replicateByCopy). Reports whether this node now newly counts as a
// holder; losing the AddReplica race to another repairer is a normal
// outcome, not a failure.
func (n *Node) replicateLocal(ctx context.Context, id storage.DatasetID) bool {
	if man, ok := n.manifests.Get(id); ok && man.Opaque {
		return n.replicateByCopy(ctx, id, man)
	}
	size, err := n.catalog.DatasetBytes(id)
	if err != nil {
		return false
	}
	n.repoMu.Lock()
	held := n.repo.HasLocal(id)
	if !held {
		err = n.repo.StoreReplica(id, size, n.now())
	}
	n.repoMu.Unlock()
	if err != nil {
		n.Metrics.RepairFailures.Inc()
		return false
	}
	// Best effort: if the disk is full the generator fallback still
	// serves the bytes, so the replica is real either way.
	_ = n.materialize(id, size)
	if err := n.catalog.AddReplica(id, n.cfg.Node, n.now()); err != nil {
		return false // already announced (origin copy or racing repairer)
	}
	n.Metrics.RepairReplicasRestored.Inc()
	n.Metrics.IngestRepairRegenerated.Inc()
	return true
}

// replicateByCopy restores an opaque dataset's replica by moving real
// bytes: a parallel range download from the surviving holders, each
// stripe digest-verified against the manifest in-stream, spilled to the
// replica volume, size-checked, and only then committed and announced.
// A corrupt or short transfer leaves no state.
func (n *Node) replicateByCopy(ctx context.Context, id storage.DatasetID, man *ingest.Manifest) bool {
	reps, err := n.catalog.Replicas(id)
	if err != nil {
		return false
	}
	var eps []string
	for _, rep := range reps {
		if rep.Node == n.cfg.Node || !n.registry.Online(rep.Node) || n.suspects.isSuspect(rep.Node) {
			continue
		}
		if u, ok := n.registry.BaseURL(rep.Node); ok {
			eps = append(eps, u)
		}
	}
	if len(eps) == 0 {
		return false // nobody alive to copy from; next sweep retries
	}
	tok, err := n.auth.Login(socialnet.UserID(n.cfg.Node))
	if err != nil {
		n.Metrics.RepairFailures.Inc()
		return false
	}
	sp, err := n.vol.NewSpill(id)
	if err != nil {
		n.Metrics.StoreSpillFailures.Inc()
		return false
	}
	stripes := len(eps)
	if stripes > repairCopyStripes {
		stripes = repairCopyStripes
	}
	res, err := cdnclient.Download(ctx, cdnclient.TransferOptions{
		Client: n.client, Endpoints: eps, Token: string(tok), Stripes: stripes,
	}, man, sp)
	if err != nil {
		sp.Abort()
		if ctx.Err() == nil {
			n.Metrics.RepairFailures.Inc()
		}
		return false
	}
	// In-stream verification covered the wire; CommitVerified's
	// coverage check covers every byte the stripes actually produced.
	if err := sp.CommitVerified(man.Size, nil, false); err != nil {
		n.Metrics.RepairFailures.Inc()
		return false
	}
	n.repoMu.Lock()
	if !n.repo.HasLocal(id) {
		err = n.repo.StoreReplica(id, man.Size, n.now())
	}
	n.repoMu.Unlock()
	if err != nil {
		n.Metrics.RepairFailures.Inc()
		n.vol.Remove(id)
		return false
	}
	n.Metrics.IngestRepairCopies.Inc()
	n.Metrics.IngestRepairCopyBytes.Add(uint64(res.Bytes))
	if err := n.catalog.AddReplica(id, n.cfg.Node, n.now()); err != nil {
		return false // already announced (racing repairer); the bytes stay
	}
	n.Metrics.RepairReplicasRestored.Inc()
	return true
}

// repairCopyStripes caps the parallel range fan-out of one repair copy.
const repairCopyStripes = 4

// requestPeerReplica asks a surviving peer to adopt a replica. The
// sweeper authenticates as its node's own platform user, so the peer
// authorizes the request exactly like any client's.
func (n *Node) requestPeerReplica(ctx context.Context, base string, id storage.DatasetID) bool {
	tok, err := n.auth.Login(socialnet.UserID(n.cfg.Node))
	if err != nil {
		n.Metrics.RepairFailures.Inc()
		return false
	}
	body, err := json.Marshal(ReplicateRequest{Dataset: string(id)})
	if err != nil {
		return false
	}
	rctx, cancel := context.WithTimeout(ctx, n.cfg.Sweep.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		base+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err := n.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			n.Metrics.RepairFailures.Inc()
		}
		return false
	}
	defer resp.Body.Close()
	var rr ReplicateResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || resp.StatusCode != http.StatusOK {
		drainBody(resp.Body)
		if ctx.Err() == nil {
			n.Metrics.RepairFailures.Inc()
		}
		return false
	}
	// The adopting peer counts the restore in its own metrics
	// (replicateLocal); here only success matters.
	return rr.Adopted || rr.Already
}
