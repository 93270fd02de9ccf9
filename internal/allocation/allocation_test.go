package allocation

import (
	"testing"
	"time"
)

// fakeDir is a test Directory: sites keyed by node, liveness toggleable,
// RTT proportional to |siteA - siteB|.
type fakeDir struct {
	sites   map[NodeID]int
	offline map[NodeID]bool
}

func newFakeDir() *fakeDir {
	return &fakeDir{sites: make(map[NodeID]int), offline: make(map[NodeID]bool)}
}

func (d *fakeDir) SiteOf(n NodeID) (int, bool) {
	s, ok := d.sites[n]
	return s, ok
}
func (d *fakeDir) Online(n NodeID) bool { return !d.offline[n] }
func (d *fakeDir) RTT(a, b int) (time.Duration, error) {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return time.Duration(diff) * time.Millisecond, nil
}

func setupServer(t *testing.T) (*Server, *fakeDir) {
	t.Helper()
	d := newFakeDir()
	for n := NodeID(1); n <= 6; n++ {
		d.sites[n] = int(n) * 10
	}
	return NewServer(d), d
}

func TestRegisterDataset(t *testing.T) {
	s, _ := setupServer(t)
	if err := s.RegisterDataset("d", 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDataset("d", 1, 100); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.RegisterDataset("e", 1, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := s.RegisterDataset("f", 99, 10); err == nil {
		t.Fatal("siteless origin accepted")
	}
	if _, err := s.DatasetBytes("zzz"); err == nil {
		t.Fatal("unknown dataset has a size")
	}
	if b, _ := s.DatasetBytes("d"); b != 100 {
		t.Fatalf("bytes = %d", b)
	}
	if o, _ := s.Origin("d"); o != 1 {
		t.Fatalf("origin = %d", o)
	}
	if _, err := s.DatasetBytes("zzz"); err == nil {
		t.Fatal("unknown dataset bytes resolved")
	}
	if _, err := s.Origin("zzz"); err == nil {
		t.Fatal("unknown dataset origin resolved")
	}
	// Origin holds the first copy.
	if n := s.ReplicaCount("d"); n != 1 {
		t.Fatalf("replica count = %d, want 1 (origin)", n)
	}
}

func TestAddRemoveReplica(t *testing.T) {
	s, _ := setupServer(t)
	s.RegisterDataset("d", 1, 100)
	if err := s.AddReplica("d", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddReplica("d", 2, 0); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	if err := s.AddReplica("zzz", 2, 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := s.AddReplica("d", 99, 0); err == nil {
		t.Fatal("siteless node accepted")
	}
	reps := s.Replicas("d")
	if len(reps) != 2 || reps[0].Node != 1 || reps[1].Node != 2 {
		t.Fatalf("replicas = %+v", reps)
	}
	if err := s.RemoveReplica("d", 1); err == nil {
		t.Fatal("origin removal accepted")
	}
	if err := s.RemoveReplica("d", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveReplica("d", 2); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := s.RemoveReplica("zzz", 2); err == nil {
		t.Fatal("unknown dataset removal accepted")
	}
}

func TestResolvePicksNearestOnline(t *testing.T) {
	s, d := setupServer(t)
	s.RegisterDataset("d", 1, 100) // origin at site 10
	s.AddReplica("d", 4, 0)        // site 40
	s.AddReplica("d", 6, 0)        // site 60

	// Requester 5 is at site 50: nearest holder is node 4 (site 40) or 6
	// (site 60) both 10ms; tie broken by node order → 4.
	r, ok, err := s.Resolve("d", 5)
	if err != nil || !ok {
		t.Fatalf("resolve: %v %v", ok, err)
	}
	if r.Node != 4 {
		t.Fatalf("resolved node = %d, want 4", r.Node)
	}
	// Take node 4 offline: now node 6 wins.
	d.offline[4] = true
	r, ok, _ = s.Resolve("d", 5)
	if !ok || r.Node != 6 {
		t.Fatalf("resolved = %+v (%v), want node 6", r, ok)
	}
	// All offline → unresolved.
	d.offline[1], d.offline[6] = true, true
	_, ok, err = s.Resolve("d", 5)
	if err != nil || ok {
		t.Fatal("offline holders should leave request unresolved")
	}
	if s.Lookups != 3 {
		t.Fatalf("lookups = %d, want 3", s.Lookups)
	}
}

func TestResolveErrors(t *testing.T) {
	s, _ := setupServer(t)
	if _, _, err := s.Resolve("zzz", 1); err == nil {
		t.Fatal("unknown dataset resolved")
	}
	s.RegisterDataset("d", 1, 100)
	if _, _, err := s.Resolve("d", 99); err == nil {
		t.Fatal("siteless requester resolved")
	}
}

func TestMaintenanceSweep(t *testing.T) {
	s, _ := setupServer(t)
	s.DemandThreshold = 3
	s.MaxReplicas = 2
	s.RegisterDataset("hot", 1, 100)
	s.RegisterDataset("cold", 2, 100)
	s.RegisterDataset("full", 3, 100)
	s.AddReplica("full", 4, 0) // at MaxReplicas already
	for i := 0; i < 5; i++ {
		s.Resolve("hot", 5)
		s.Resolve("full", 5)
	}
	s.Resolve("cold", 5)
	hot := s.MaintenanceSweep()
	if len(hot) != 1 || hot[0].ID != "hot" || hot[0].Accesses != 5 {
		t.Fatalf("sweep = %+v", hot)
	}
	// The sweep is read-only: until the caller acknowledges the
	// recommendations, a second sweep repeats them (a crashed sweeper
	// drops no repair work).
	if again := s.MaintenanceSweep(); len(again) != 1 || again[0].ID != "hot" {
		t.Fatalf("unacked second sweep = %+v, want the same recommendation", again)
	}
	s.AckSweep(hot)
	if acked := s.MaintenanceSweep(); len(acked) != 0 {
		t.Fatalf("post-ack sweep = %+v, want empty", acked)
	}
}

// TestMaintenanceSweepAckKeepsNewDemand checks the two-phase contract:
// accesses that arrive between the sweep and its acknowledgment are not
// lost — the ack subtracts only the demand the sweep observed.
func TestMaintenanceSweepAckKeepsNewDemand(t *testing.T) {
	s, _ := setupServer(t)
	s.DemandThreshold = 3
	s.RegisterDataset("d", 1, 100)
	for i := 0; i < 4; i++ {
		s.Resolve("d", 5)
	}
	hot := s.MaintenanceSweep()
	if len(hot) != 1 || hot[0].Accesses != 4 {
		t.Fatalf("sweep = %+v", hot)
	}
	// Demand keeps arriving while the sweeper is placing the replica.
	for i := 0; i < 3; i++ {
		s.Resolve("d", 5)
	}
	s.AckSweep(hot)
	// The three post-sweep accesses survived the ack and cross the
	// threshold on their own.
	if again := s.MaintenanceSweep(); len(again) != 1 || again[0].Accesses != 3 {
		t.Fatalf("post-ack sweep = %+v, want 3 surviving accesses", again)
	}
	// Acking an entry recorded with more accesses than remain (or an
	// unknown dataset) clamps at zero instead of wrapping.
	s.AckSweep([]HotDataset{{ID: "d", Accesses: 99}, {ID: "ghost", Accesses: 1}})
	if final := s.MaintenanceSweep(); len(final) != 0 {
		t.Fatalf("over-acked sweep = %+v, want empty", final)
	}
}

func TestDatasetsSorted(t *testing.T) {
	s, _ := setupServer(t)
	s.RegisterDataset("zz", 1, 1)
	s.RegisterDataset("aa", 1, 1)
	ids := s.Datasets()
	if len(ids) != 2 || ids[0] != "aa" {
		t.Fatalf("datasets = %v", ids)
	}
}
