package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/storage"
)

// fastSweep is an aggressive sweeper tuning for tests: suspicion and
// repair converge in hundreds of milliseconds instead of seconds.
func fastSweep() SweeperConfig {
	return SweeperConfig{
		Interval:          50 * time.Millisecond,
		ProbeTimeout:      250 * time.Millisecond,
		FailThreshold:     2,
		ReplicationTarget: 2,
	}
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// DatasetReplication is one dataset's replication health: how many
// holders the catalog records and how many of them are currently online.
type DatasetReplication struct {
	ID       storage.DatasetID
	Replicas int
	Live     int
}

// ReplicationStatus reports every dataset's replication health: after
// repair converges, each dataset's Live count must be back at the
// replication target (capped by how many edges are up).
func (lc *LocalCluster) ReplicationStatus() []DatasetReplication {
	out := make([]DatasetReplication, 0, len(lc.DatasetIDs))
	for _, id := range lc.DatasetIDs {
		holders := lc.Catalog.AppendHolders(nil, id)
		st := DatasetReplication{ID: id, Replicas: len(holders)}
		for _, h := range holders {
			if lc.Registry.Online(h) {
				st.Live++
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

// replicationMet reports whether every dataset has at least
// min(target, live nodes) online holders.
func replicationMet(lc *LocalCluster, target int) bool {
	want := target
	if live := lc.LiveNodes(); live < want {
		want = live
	}
	for _, st := range lc.ReplicationStatus() {
		if st.Live < want {
			return false
		}
	}
	return true
}

// TestSweeperDetectsDeadRepairsAndReadmits walks the full repair story
// in steps, each node's sweeper off and its sweeps called in turn: a
// crashed member is declared dead by its peers' failure detectors
// after FailThreshold failed probes and deregistered, its datasets are
// re-replicated onto the survivors so fetches keep succeeding, and the
// member is welcomed back when it restarts.
func TestSweeperDetectsDeadRepairsAndReadmits(t *testing.T) {
	sweep := SweeperConfig{Disabled: true, ReplicationTarget: 2, FailThreshold: 2}
	lc := startCluster(t, ClusterConfig{Nodes: 3, Users: 1, Datasets: 6, Sweep: sweep})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	states := []*sweepState{newSweepState(), newSweepState(), newSweepState()}
	step := func() {
		for i, n := range lc.Nodes {
			if n.Running() {
				n.sweepOnce(context.Background(), states[i])
			}
		}
	}

	// One round of sweeps fans every dataset out to the replication
	// target before anything fails.
	step()
	if !replicationMet(lc, 2) {
		t.Fatal("one round of sweeps left a dataset below its floor")
	}

	// Crash node 1 the hard way: no goodbye, registry still lists it
	// online until the survivors' detectors have failed FailThreshold
	// probes.
	lc.Nodes[0].Crash()
	for i := 0; i < sweep.FailThreshold; i++ {
		if !lc.Registry.Online(1) {
			t.Fatalf("node 1 deregistered after %d failed probes, want %d", i, sweep.FailThreshold)
		}
		step()
	}
	if lc.Registry.Online(1) {
		t.Fatal("dead member still registered online")
	}
	if got := lc.Nodes[1].Metrics.RepairDeadMembers.Value() +
		lc.Nodes[2].Metrics.RepairDeadMembers.Value(); got < 1 {
		t.Fatalf("no survivor counted the dead member (dead_members=%d)", got)
	}
	// Repair restored the floor with only the survivors.
	if !replicationMet(lc, 2) {
		t.Fatal("survivors left a dataset below its floor")
	}
	// ds-001's origin was the dead node; a survivor must now serve it.
	fetchDataset(t, client, lc.Nodes[1].BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)

	// The member comes back and is re-admitted.
	if err := lc.Nodes[0].Start(); err != nil {
		t.Fatal(err)
	}
	states[0] = newSweepState()
	step()
	if !lc.Registry.Online(1) || lc.LiveNodes() != 3 {
		t.Fatalf("restarted member not re-admitted: online %v, %d live nodes", lc.Registry.Online(1), lc.LiveNodes())
	}
	fetchDataset(t, client, lc.Nodes[0].BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
}

// TestRepairMakesEachMissingCopyOnce: only the elected repairer copies
// a dataset below its floor, so racing sweepers make each missing copy
// once. After the first fan-out and after each of two crashes, every
// dataset has exactly min(target, live) live copies, and the cluster
// restored exactly as many replicas as were missing. Datasets are 1 MiB
// so that one copy outlasts the gap between two sweepers that start
// together: repair without an election overshoots on every such pair.
func TestRepairMakesEachMissingCopyOnce(t *testing.T) {
	const datasets = 20
	sweep := fastSweep()
	lc := startCluster(t, ClusterConfig{
		Nodes: 5, Users: 1, Datasets: datasets, DatasetBytes: 1 << 20, Sweep: sweep,
	})
	restored := func() uint64 {
		var sum uint64
		for _, n := range lc.Nodes {
			sum += n.Metrics.RepairReplicasRestored.Value()
		}
		return sum
	}
	// settle waits for the floor, then gives every sweeper several more
	// cycles in which a racing copy would land, and checks the counts.
	settle := func(what string, before, missing uint64) {
		t.Helper()
		waitFor(t, 15*time.Second, what, func() bool {
			return replicationMet(lc, sweep.ReplicationTarget)
		})
		time.Sleep(8 * sweep.Interval)
		want := min(sweep.ReplicationTarget, lc.LiveNodes())
		for _, st := range lc.ReplicationStatus() {
			if st.Live != want {
				t.Errorf("%s: %s has %d live copies, want exactly %d", what, st.ID, st.Live, want)
			}
		}
		if got := restored() - before; got != missing {
			t.Errorf("%s: %d copies made for %d missing", what, got, missing)
		}
	}
	settle("first fan-out", 0, datasets)

	for _, victim := range []*Node{lc.Nodes[0], lc.Nodes[3]} {
		var missing uint64
		for _, id := range lc.DatasetIDs {
			if lc.Catalog.Holds(id, victim.ID()) {
				missing++
			}
		}
		before := restored()
		victim.Crash()
		waitFor(t, 15*time.Second, "dead member deregistered", func() bool {
			return !lc.Registry.Online(victim.ID())
		})
		settle(fmt.Sprintf("after node %d crashed", victim.ID()), before, missing)
	}
}

// TestDesignatedElection checks the repair election as a pure function
// of (dataset, live view, holders, sweeps below floor): who is
// designated, that live holders count toward the floor, that a suspect
// dropped from the view neither counts nor copies, and the fallback.
func TestDesignatedElection(t *testing.T) {
	const id = storage.DatasetID("ds-007")
	const patience = 2
	view := []storage.NodeID{1, 2, 3, 4, 5}
	// r is view ranked by rendezvous score, best first.
	r := append([]storage.NodeID(nil), view...)
	sort.Slice(r, func(i, j int) bool { return hrwScore(id, r[i]) > hrwScore(id, r[j]) })
	held := func(nodes ...storage.NodeID) []storage.NodeID { return nodes }
	without := func(drop storage.NodeID) []storage.NodeID {
		var out []storage.NodeID
		for _, n := range view {
			if n != drop {
				out = append(out, n)
			}
		}
		return out
	}
	cases := []struct {
		name     string
		view     []storage.NodeID
		holders  []storage.NodeID
		target   int
		belowFor int
		want     []storage.NodeID // in any order
	}{
		{"top non-holder copies", view, held(r[2]), 2, 1, []storage.NodeID{r[0]}},
		{"a holder's rank is skipped", view, held(r[0]), 2, 1, []storage.NodeID{r[1]}},
		{"two missing copies, two designees", view, held(r[2]), 3, 1, []storage.NodeID{r[0], r[1]}},
		{"live holders meet the floor", view, held(r[2], r[4]), 2, 1, nil},
		{"a suspect holder does not count", without(r[4]), held(r[2], r[4]), 2, 1, []storage.NodeID{r[0]}},
		{"a suspect designee is passed over", without(r[0]), held(r[2]), 2, 1, []storage.NodeID{r[1]}},
		{"patience not yet spent", view, held(r[2]), 2, patience, []storage.NodeID{r[0]}},
		{"fallback: any live non-holder", view, held(r[2]), 2, patience + 1, []storage.NodeID{r[0], r[1], r[3], r[4]}},
		{"fallback skips the suspect", without(r[4]), held(r[2]), 2, patience + 1, []storage.NodeID{r[0], r[1], r[3]}},
		{"no fallback at the floor", view, held(r[2], r[3]), 2, patience + 1, nil},
	}
	for _, c := range cases {
		var got []storage.NodeID
		for _, self := range c.view {
			if designated(id, self, c.view, c.holders, c.target, c.belowFor, patience) {
				got = append(got, self)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := append([]storage.NodeID(nil), c.want...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: designated %v, want %v (rank %v)", c.name, got, want, r)
		}
	}
}

// TestHRWScoreIsFixed pins the rendezvous score to known values: every
// process, and every build, must rank members alike.
func TestHRWScoreIsFixed(t *testing.T) {
	for _, c := range []struct {
		id   storage.DatasetID
		node storage.NodeID
		want uint64
	}{
		{"ds-001", 1, 0x46c9000e0b0531e6},
		{"ds-001", 2, 0xc26cb173e9f60e},
	} {
		if got := hrwScore(c.id, c.node); got != c.want {
			t.Errorf("hrwScore(%s, %d) = %#x, want %#x", c.id, c.node, got, c.want)
		}
	}
}

// crashHolder makes node 1 a disk holder of ds (origin node 2, so node
// 1's record is purgeable), crashes it, runs lost while it is down, and
// waits until its peers have purged its record and repaired ds back to
// the floor without it — so the restarted node's sweeper is not
// designated to copy ds back.
func crashHolder(t *testing.T, lc *LocalCluster, ds storage.DatasetID, lost func()) {
	t.Helper()
	node1 := lc.Nodes[0]
	// Make node 1 a holder (a no-op if its sweeper already volunteered
	// it).
	if !node1.replicateLocal(context.Background(), ds) && !lc.Catalog.Holds(ds, 1) {
		t.Fatalf("node 1 neither adopted nor held %s", ds)
	}
	waitFor(t, 10*time.Second, "replica materialized on disk", func() bool {
		return node1.Volume().Has(ds) && lc.Catalog.Holds(ds, 1)
	})

	node1.Crash()
	lost()
	waitFor(t, 15*time.Second, "dead member purged and repaired around", func() bool {
		return !lc.Registry.Online(1) && !lc.Catalog.Holds(ds, 1) && replicationMet(lc, 2)
	})
}

// TestCrashRestartReadoptsDiskReplica checks the crash story: a node
// adopts a replica onto its volume, crashes, is purged from the catalog
// by its peers, and on restart replays its volume from disk and
// re-announces the replica — re-adoption without re-transfer.
func TestCrashRestartReadoptsDiskReplica(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 4, Sweep: fastSweep(),
	})
	node1 := lc.Nodes[0]
	const ds = "ds-002"
	before := node1.Volume()
	crashHolder(t, lc, ds, func() {})

	// Restart: the replica survived the crash on disk, so the volume
	// Start opens replays it and Start re-announces it.
	if err := node1.Start(); err != nil {
		t.Fatal(err)
	}
	if node1.Volume() == before {
		t.Fatal("restart kept the volume it crashed with instead of replaying the disk")
	}
	if !lc.Registry.Online(1) {
		t.Fatal("restarted node did not rejoin the registry")
	}
	if !lc.Catalog.Holds(ds, 1) {
		t.Fatalf("restarted node did not re-adopt %s in the catalog", ds)
	}
	if got := node1.Metrics.RepairReadoptedReplicas.Value(); got < 1 {
		t.Fatalf("readopted replicas = %d, want >= 1", got)
	}
	if !node1.Volume().Has(ds) {
		t.Fatal("disk replica vanished across restart")
	}

	// And it serves the readopted bytes itself.
	client := &http.Client{Timeout: 5 * time.Second}
	fetchDataset(t, client, node1.BaseURL(), login(t, lc), ds, lc.Config.DatasetBytes)
}

// TestCrashRestartSkipsReplicaGoneFromVolume: a restart re-announces
// only what replaying the volume adopts. A member whose disk was wiped
// while it was down comes back empty — the sweeper's floor, not the
// restart, decides whether the replica comes back — and still serves
// the dataset through a peer.
func TestCrashRestartSkipsReplicaGoneFromVolume(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 4, Sweep: fastSweep(),
	})
	node1 := lc.Nodes[0]
	const ds = "ds-002"
	crashHolder(t, lc, ds, func() {
		if err := os.RemoveAll(filepath.Join(lc.StoreRoot, "node-1")); err != nil {
			t.Error(err)
		}
	})

	// Start re-adopts synchronously, before its sweeper goroutine runs.
	if err := node1.Start(); err != nil {
		t.Fatal(err)
	}
	if lc.Catalog.Holds(ds, 1) {
		t.Fatalf("restarted node re-announced %s with no bytes on its disk", ds)
	}
	if node1.Volume().Has(ds) {
		t.Fatal("wiped replica came back across restart")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	fetchDataset(t, client, node1.BaseURL(), login(t, lc), ds, lc.Config.DatasetBytes)
}

// TestChurnConcurrentSweepAndFetch runs scripted churn, the repair
// sweepers, and a fetch workload against the same 4-node cluster at
// once — the -race exercise for the whole self-healing plane. Client
// errors are expected mid-churn; what must hold is that the schedule
// applies cleanly and the cluster converges back to the replication
// floor afterwards.
func TestChurnConcurrentSweepAndFetch(t *testing.T) {
	const datasets = 8
	lc := startCluster(t, ClusterConfig{
		Nodes: 4, Users: 2, Datasets: datasets, Sweep: fastSweep(),
	})
	tok := login(t, lc)
	client := &http.Client{Timeout: 2 * time.Second}

	crash := func(n *Node) error { n.Crash(); return nil }
	drain := func(n *Node) error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return n.Stop(ctx)
	}
	start := func(n *Node) error { return n.Start() }
	events := []struct {
		at    time.Duration
		apply func(*Node) error
		node  int // 1-based
	}{
		{50 * time.Millisecond, crash, 2},
		{150 * time.Millisecond, drain, 3},
		{450 * time.Millisecond, start, 2},
		{600 * time.Millisecond, start, 3},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				node := lc.Nodes[(w+i)%len(lc.Nodes)]
				if !node.Running() {
					continue
				}
				id := fmt.Sprintf("ds-%03d", (i%datasets)+1)
				req, err := http.NewRequest(http.MethodGet, node.BaseURL()+"/v1/fetch/"+id, nil)
				if err != nil {
					continue
				}
				req.Header.Set("Authorization", "Bearer "+string(tok))
				resp, err := client.Do(req)
				if err != nil {
					continue // mid-churn failures are the point
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	begin := time.Now()
	var errs []error
	for _, ev := range events {
		time.Sleep(ev.at - time.Since(begin))
		if err := ev.apply(lc.Nodes[ev.node-1]); err != nil {
			errs = append(errs, fmt.Errorf("node %d at %v: %w", ev.node, ev.at, err))
		}
	}
	close(stop)
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("churn errors: %v", errs)
	}
	for i, n := range lc.Nodes {
		if !n.Running() {
			t.Fatalf("node %d still down after the schedule", i+1)
		}
	}
	n2, n3 := lc.Nodes[1].Metrics, lc.Nodes[2].Metrics
	if n2.ChurnKills.Value() != 1 || n3.ChurnKills.Value() != 0 ||
		n2.ChurnRestarts.Value() != 1 || n3.ChurnRestarts.Value() != 1 {
		t.Fatalf("churn counters: node 2 kills=%d restarts=%d, node 3 kills=%d restarts=%d; want 1/1, 0/1",
			n2.ChurnKills.Value(), n2.ChurnRestarts.Value(), n3.ChurnKills.Value(), n3.ChurnRestarts.Value())
	}
	waitFor(t, 20*time.Second, "post-churn repair convergence", func() bool {
		return replicationMet(lc, 2)
	})
}

// TestRestartedMemberIsNotSuspect: a failed probe makes a member
// suspect at the endpoint it was probed at. A member that restarts
// registers a fresh endpoint, so its peers route to it again at once,
// not only after their next probe: an upload it alone holds is served
// through a peer right after the restart.
func TestRestartedMemberIsNotSuspect(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, NoSeedDatasets: true,
		Sweep: SweeperConfig{Disabled: true}})
	n1, n2 := lc.Nodes[0], lc.Nodes[1]
	tok := string(login(t, lc))
	payload := bytes.Repeat([]byte("restart"), 10000)
	man, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{n2.BaseURL()}, Token: tok}, "up-1", lc.Config.Group,
		bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	n2.Crash()
	n1.sweepOnce(context.Background(), newSweepState())
	if n1.isLive(2) {
		t.Fatal("a crashed member is live after a failed probe")
	}
	if err := n2.Start(); err != nil {
		t.Fatal(err)
	}
	if !n1.isLive(2) {
		t.Fatal("a restarted member is still suspect at its new endpoint")
	}
	if _, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{n1.BaseURL()}, Token: tok}, man, cdnclient.Discard); err != nil {
		t.Fatalf("fetch through a peer right after the holder restarted: %v", err)
	}
}
