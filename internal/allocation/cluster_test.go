package allocation

import (
	"testing"
	"testing/quick"

	"scdn/internal/storage"
)

func setupCluster(t *testing.T, n int) (*Cluster, *fakeDir) {
	t.Helper()
	d := newFakeDir()
	for node := NodeID(1); node <= 6; node++ {
		d.sites[node] = int(node) * 10
	}
	c, err := NewCluster(n, d)
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, newFakeDir()); err == nil {
		t.Fatal("empty cluster accepted")
	}
	c, _ := setupCluster(t, 3)
	if len(c.servers) != 3 {
		t.Fatalf("size = %d", len(c.servers))
	}
}

func TestClusterReplicatesMutations(t *testing.T) {
	c, _ := setupCluster(t, 3)
	if err := c.RegisterDataset("d", 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica("d", 2, 0); err != nil {
		t.Fatal(err)
	}
	// Every member must hold the same catalog.
	for i, s := range c.servers {
		if s.ReplicaCount("d") != 2 {
			t.Fatalf("server %d catalog inconsistent", i)
		}
	}
	if err := c.RemoveReplica("d", 2); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.servers {
		if s.ReplicaCount("d") != 1 {
			t.Fatalf("server %d removal not replicated", i)
		}
	}
}

func TestClusterReadsRoundRobin(t *testing.T) {
	c, _ := setupCluster(t, 3)
	c.RegisterDataset("d", 1, 100)
	for i := 0; i < 9; i++ {
		if _, _, err := c.Resolve("d", 2); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range c.servers {
		if s.Lookups != 3 {
			t.Fatalf("server %d lookups = %d, want 3 (round robin)", i, s.Lookups)
		}
	}
}

func TestClusterDemandReplication(t *testing.T) {
	c, _ := setupCluster(t, 3)
	c.SetPolicy(5, 4)
	c.RegisterDataset("d", 1, 100)
	for i := 0; i < 6; i++ {
		c.Resolve("d", 2)
	}
	hot, err := c.MaintenanceSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 1 || hot[0].ID != "d" || hot[0].Accesses != 6 {
		t.Fatalf("sweep = %+v (demand not replicated across members)", hot)
	}
	// AckSweep reaches every live member: after the ack, each server's
	// own sweep is empty.
	c.AckSweep(hot)
	for i, s := range c.servers {
		if again := s.MaintenanceSweep(); len(again) != 0 {
			t.Fatalf("server %d post-ack sweep = %+v, want empty", i, again)
		}
	}
}

func TestClusterSurvivesOutage(t *testing.T) {
	c, _ := setupCluster(t, 3)
	c.RegisterDataset("d", 1, 100)
	if err := c.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica("d", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Resolve("d", 3); err != nil || !ok {
		t.Fatalf("resolve during outage failed: %v %v", ok, err)
	}
	// Server 0 missed the AddReplica; on rejoin it must resync.
	if err := c.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	if c.servers[0].ReplicaCount("d") != 2 {
		t.Fatal("rejoined server did not resync catalog")
	}
	if err := c.SetDown(9, true); err == nil {
		t.Fatal("unknown server id accepted")
	}
}

func TestClusterAllDown(t *testing.T) {
	c, _ := setupCluster(t, 2)
	c.RegisterDataset("d", 1, 100)
	c.SetDown(0, true)
	c.SetDown(1, true)
	if err := c.RegisterDataset("e", 1, 100); err == nil {
		t.Fatal("mutation with no live servers accepted")
	}
	if _, _, err := c.Resolve("d", 2); err == nil {
		t.Fatal("resolve with no live servers accepted")
	}
	if _, err := c.MaintenanceSweep(); err == nil {
		t.Fatal("sweep with no live servers accepted")
	}
	if _, err := c.Datasets(); err == nil {
		t.Fatal("datasets with no live servers accepted")
	}
	if n := c.ReplicaCount("d"); n != 0 {
		t.Fatalf("replica count with no live servers = %d", n)
	}
}

func TestClusterReadHelpers(t *testing.T) {
	c, _ := setupCluster(t, 2)
	c.RegisterDataset("d", 1, 123)
	if b, err := c.DatasetBytes("d"); err != nil || b != 123 {
		t.Fatalf("bytes = %d, %v", b, err)
	}
	if o, err := c.Origin("d"); err != nil || o != 1 {
		t.Fatalf("origin = %d, %v", o, err)
	}
	reps, err := c.Replicas("d")
	if err != nil || len(reps) != 1 {
		t.Fatalf("replicas = %+v, %v", reps, err)
	}
	ids, err := c.Datasets()
	if err != nil || len(ids) != 1 || ids[0] != "d" {
		t.Fatalf("datasets = %v, %v", ids, err)
	}
}

// TestPropertyClusterConsistencyUnderOutages drives random mutations,
// reads, and outage/rejoin cycles, checking that all live members agree
// on the catalog after every step.
func TestPropertyClusterConsistencyUnderOutages(t *testing.T) {
	type op struct {
		Kind uint8
		A    uint8
		B    uint8
	}
	f := func(ops []op) bool {
		d := newFakeDir()
		for n := NodeID(1); n <= 9; n++ {
			d.sites[n] = int(n)
		}
		c, err := NewCluster(3, d)
		if err != nil {
			return false
		}
		down := map[int]bool{}
		datasets := []storage.DatasetID{"d0", "d1", "d2", "d3"}
		for _, o := range ops {
			id := datasets[int(o.A)%len(datasets)]
			node := NodeID(int(o.B)%9 + 1)
			switch o.Kind % 6 {
			case 0:
				c.RegisterDataset(id, node, 100) //nolint:errcheck
			case 1:
				c.AddReplica(id, node, 0) //nolint:errcheck
			case 2:
				c.RemoveReplica(id, node) //nolint:errcheck
			case 3:
				c.Resolve(id, node) //nolint:errcheck
			case 4:
				srv := int(o.B) % 3
				// Never take the last live server down, so mutations
				// keep applying.
				liveCount := 0
				for i := 0; i < 3; i++ {
					if !down[i] {
						liveCount++
					}
				}
				if !down[srv] && liveCount > 1 {
					c.SetDown(srv, true)
					down[srv] = true
				}
			case 5:
				srv := int(o.B) % 3
				if down[srv] {
					c.SetDown(srv, false)
					down[srv] = false
				}
			}
			// Invariant: all live members hold identical catalogs.
			var ref *Server
			for i, s := range c.servers {
				if down[i] {
					continue
				}
				if ref == nil {
					ref = s
					continue
				}
				refIDs := ref.Datasets()
				sIDs := s.Datasets()
				if len(refIDs) != len(sIDs) {
					t.Logf("catalog size divergence: %v vs %v", refIDs, sIDs)
					return false
				}
				for _, dID := range refIDs {
					if ref.ReplicaCount(dID) != s.ReplicaCount(dID) {
						t.Logf("replica divergence on %q", dID)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
