package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

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

// TestSweeperDetectsDeadRepairsAndReadmits walks the full repair story:
// a crashed member is declared dead by its peers' failure detectors and
// deregistered, its datasets are re-replicated onto the survivors so
// fetches keep succeeding, and the member is welcomed back when it
// restarts.
func TestSweeperDetectsDeadRepairsAndReadmits(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 6, Sweep: fastSweep(),
	})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)

	// The sweepers fan every dataset out to the replication target even
	// before anything fails.
	waitFor(t, 15*time.Second, "initial replication fan-out", func() bool {
		return replicationMet(lc, 2)
	})

	// Crash node 1 the hard way: no goodbye, registry still lists it
	// online until a peer's detector notices.
	lc.Nodes[0].Crash()
	waitFor(t, 15*time.Second, "dead member deregistered", func() bool {
		return !lc.Registry.Online(1)
	})
	if got := lc.Nodes[1].Metrics.RepairDeadMembers.Value() +
		lc.Nodes[2].Metrics.RepairDeadMembers.Value(); got < 1 {
		t.Fatalf("no survivor counted the dead member (dead_members=%d)", got)
	}

	// Repair restores the floor with only the survivors.
	waitFor(t, 15*time.Second, "post-crash re-replication", func() bool {
		return replicationMet(lc, 2)
	})

	// ds-001's origin was the dead node; a survivor must now serve it.
	fetchDataset(t, client, lc.Nodes[1].BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)

	// The member comes back and is re-admitted.
	if err := lc.Nodes[0].Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "restarted member re-admitted", func() bool {
		return lc.Registry.Online(1) && lc.LiveNodes() == 3
	})
	fetchDataset(t, client, lc.Nodes[0].BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
}

// crashHolder makes node 1 a disk holder of ds (origin node 2, so node
// 1's record is purgeable), crashes it, runs lost while it is down, and
// waits until its peers have purged its record and repaired ds back to
// the floor without it — so no peer asks the restarted node to adopt ds.
func crashHolder(t *testing.T, lc *LocalCluster, ds storage.DatasetID, lost func()) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	node1 := lc.Nodes[0]
	// Make node 1 a holder via the replication endpoint (idempotent if a
	// sweeper already volunteered it).
	var rr ReplicateResponse
	if code := doJSON(t, client, http.MethodPost, node1.BaseURL()+"/v1/replicate", login(t, lc),
		ReplicateRequest{Dataset: string(ds)}, &rr); code != http.StatusOK {
		t.Fatalf("replicate = %d", code)
	}
	if !rr.Adopted && !rr.Already {
		t.Fatalf("replicate response = %+v", rr)
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

// TestCrashRestartReadoptsDiskReplica checks the disk-mode crash story:
// a node adopts a replica onto its DiskVolume, crashes, is purged from
// the catalog by its peers, and on restart re-announces the file it
// still holds on disk — re-adoption without re-transfer.
func TestCrashRestartReadoptsDiskReplica(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 4, Sweep: fastSweep(),
	})
	node1 := lc.Nodes[0]
	const ds = "ds-002"
	crashHolder(t, lc, ds, func() {})

	// Restart: the file survived the crash, so Start re-announces it.
	if err := node1.Start(); err != nil {
		t.Fatal(err)
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
// only what the volume holds. A regenerable replica whose bytes left
// the volume while the node was down is not re-adopted — the sweeper's
// floor, not the restart, decides whether it comes back.
func TestCrashRestartSkipsReplicaGoneFromVolume(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 4, Sweep: fastSweep(),
	})
	node1 := lc.Nodes[0]
	const ds = "ds-002"
	crashHolder(t, lc, ds, func() { node1.Volume().Remove(ds) })

	// Start re-adopts synchronously, before its sweeper goroutine runs.
	if err := node1.Start(); err != nil {
		t.Fatal(err)
	}
	if lc.Catalog.Holds(ds, 1) {
		t.Fatalf("restarted node re-announced %s with no bytes in its volume", ds)
	}
	if node1.Volume().Has(ds) {
		t.Fatal("removed replica came back across restart")
	}
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
