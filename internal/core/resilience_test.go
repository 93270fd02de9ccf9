package core

import (
	"testing"
	"time"

	"scdn/internal/graph"
	"scdn/internal/placement"
	"scdn/internal/socialnet"
	"scdn/internal/trust"
)

// mixedCommunity builds ten users: 1-2 institutional, the rest personal
// machines that churn.
func mixedCommunity() ([]User, []Edge) {
	var users []User
	for i := 1; i <= 10; i++ {
		users = append(users, User{
			ID: graph.NodeID(i), Name: "u", SiteID: (i - 1) % 8,
			CapacityBytes: 20e9, ReplicaReserveBytes: 10e9,
			Institutional: i <= 2,
		})
	}
	var edges []Edge
	// Hub-and-spoke around user 1 plus a chain, so placement has choices.
	for i := 2; i <= 6; i++ {
		edges = append(edges, Edge{A: 1, B: graph.NodeID(i), Type: socialnet.Coauthor, Strength: 2})
	}
	for i := 6; i < 10; i++ {
		edges = append(edges, Edge{A: graph.NodeID(i), B: graph.NodeID(i + 1), Type: socialnet.Coauthor, Strength: 1})
	}
	return users, edges
}

func TestStrategyTrustPrefersProvenPartners(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(3)
	cfg.Churn = false
	cfg.Strategy = StrategyTrust
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Build heavy proven trust on one of node 9's edges (publications).
	for i := 0; i < 20; i++ {
		s.Trust.Record(9, 10, trust.Interaction{Kind: trust.Publication})
	}
	s.PublishDataset(1, "d", 1e6)
	placed, err := s.PlaceReplicas("d", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Node 9 has trust-weighted degree 2 edges × (1+20) on one edge
	// = base 2 + 20 ≈ 22, beating the hub (degree 5, weight ~5).
	if len(placed) != 1 || placed[0] != 9 {
		t.Fatalf("trust strategy placed %v, want [9]", placed)
	}
}

func TestStrategyAvailabilityAvoidsChurners(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(5)
	cfg.Churn = true // users 3..10 churn; 1 and 2 are institutional
	cfg.Strategy = StrategyAvailability
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(3, "d", 1e6)
	placed, err := s.PlaceReplicas("d", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 {
		t.Fatalf("placed = %v", placed)
	}
	// The chosen host should be institutional (uptime 1): user 1 (hub,
	// degree 5 × 1.0 beats everything).
	if placed[0] != 1 {
		t.Fatalf("availability strategy placed %v, want institutional hub 1", placed)
	}
}

func TestMigrationMovesReplicasOffWeakHosts(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(7)
	cfg.Churn = true
	cfg.MaintenanceInterval = time.Hour
	cfg.MigrationUptimeFloor = 0.9 // anything below 90% uptime migrates
	cfg.Placement = placement.NodeDegree{}
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(1, "d", 1e6)
	// Force a replica onto a churny low-uptime host (user 7).
	repo7, _ := s.Repository(7)
	if err := repo7.StoreReplica("d", 1e6, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster.AddReplica("d", 7, 0); err != nil {
		t.Fatal(err)
	}
	uptime7 := 0.0
	for hour := 0; hour < 24; hour++ {
		if s.OnlineAt(7, time.Duration(hour)*time.Hour) {
			uptime7++
		}
	}
	if uptime7/24 >= 0.9 {
		t.Skip("seed produced an unusually stable trace for user 7")
	}
	s.Run(3 * time.Hour)
	if s.CDN.Migrations.Value() == 0 {
		t.Fatal("no migration recorded")
	}
	if repo7.HasReplica("d") {
		t.Fatal("weak host still holds the replica")
	}
	// Redundancy preserved: someone else holds a copy besides the origin.
	reps, _ := s.Cluster.Replicas("d")
	if len(reps) < 2 {
		t.Fatalf("replicas after migration = %v", reps)
	}
	for _, r := range reps {
		if r.Node == 7 {
			t.Fatal("catalog still lists the weak host")
		}
	}
}

func TestAllocationServerOutageTransparent(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(11)
	cfg.Churn = false
	cfg.AllocationServers = 3
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(1, "d", 1e6)
	s.PlaceReplicas("d", 2)
	s.Run(time.Hour)
	// One server dies; the cluster keeps resolving.
	if err := s.Cluster.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	// User 4 is a leaf that never hosts replicas in this topology.
	var result *AccessResult
	s.RequestAccess(4, "d", func(r AccessResult) { result = &r })
	s.Run(2 * time.Hour)
	if result == nil || (result.Outcome != ReplicaFetch && result.Outcome != OriginFetch) {
		t.Fatalf("access during outage = %+v", result)
	}
	// Publishing during the outage replicates to live members only...
	if err := s.PublishDataset(2, "d2", 1e6); err != nil {
		t.Fatal(err)
	}
	// ...and the rejoining server resyncs the catalog.
	if err := s.Cluster.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	var r2 *AccessResult
	s.RequestAccess(10, "d2", func(r AccessResult) { r2 = &r })
	s.Run(4 * time.Hour)
	if r2 == nil || r2.Outcome == Unavailable {
		t.Fatalf("post-rejoin access = %+v", r2)
	}
}

func TestTotalAllocationOutageFailsGracefully(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(13)
	cfg.Churn = false
	cfg.AllocationServers = 2
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(1, "d", 1e6)
	s.Run(time.Hour)
	s.Cluster.SetDown(0, true)
	s.Cluster.SetDown(1, true)
	var result *AccessResult
	s.RequestAccess(9, "d", func(r AccessResult) { result = &r })
	s.Run(2 * time.Hour)
	if result == nil || result.Outcome != Unavailable {
		t.Fatalf("access with no catalog = %+v, want Unavailable", result)
	}
	if s.CDN.RequestsFailed.Value() == 0 {
		t.Fatal("failed request not counted")
	}
}

func TestTransferFailureStorm(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(17)
	cfg.Churn = false
	cfg.TransferFailureProb = 0.95 // nearly everything fails, even retried
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(1, "d", 100e6)
	failures := 0
	for _, u := range []graph.NodeID{5, 6, 7, 8, 9, 10} {
		u := u
		s.RequestAccess(u, "d", func(r AccessResult) {
			if r.Outcome == TransferFailed {
				failures++
			}
		})
	}
	s.Run(12 * time.Hour)
	if failures == 0 {
		t.Fatal("0.95 failure probability produced no terminal failures across 6 transfers")
	}
	if s.Social.SuccessRatio() == 1 {
		t.Fatal("success ratio should reflect failed exchanges")
	}
	// Failed transfers must erode trust, not build it.
	if s.Trust.Score(1, 5, s.Engine.Now().Duration()) > 1 {
		t.Fatalf("trust grew despite failure storm: %v", s.Trust.Score(1, 5, s.Engine.Now().Duration()))
	}
}

func TestP2PFallbackRescuesAccess(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(29)
	cfg.Churn = false
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(1, "d", 1e6)
	s.Run(time.Hour)
	// Ensure a neighbour of 10 holds a copy: user 9 fetches it first.
	// (No CDN replicas are placed, so 10 itself cannot hold the data.)
	s.RequestAccess(9, "d", nil)
	s.Run(2 * time.Hour)
	repo9, _ := s.Repository(9)
	if !repo9.HasLocal("d") {
		t.Fatal("setup: user 9 should hold a copy")
	}
	// Total catalog outage.
	s.Cluster.SetDown(0, true)
	s.Cluster.SetDown(1, true)
	var result *AccessResult
	s.RequestAccess(10, "d", func(r AccessResult) { result = &r })
	s.Run(4 * time.Hour)
	if result == nil {
		t.Fatal("access incomplete")
	}
	if result.Outcome != ReplicaFetch && result.Outcome != OriginFetch {
		t.Fatalf("P2P fallback outcome = %v", result.Outcome)
	}
	if result.Source != 9 {
		t.Fatalf("P2P fallback served from %d, want neighbour 9", result.Source)
	}
	if s.P2PLookups == 0 {
		t.Fatal("P2P lookup not counted")
	}
}

func TestP2PFallbackTwoHops(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(31)
	cfg.Churn = false
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Owner 8 publishes; 10's 2-hop neighbourhood includes 8 (10-9-8).
	s.PublishDataset(8, "d", 1e6)
	s.Run(time.Hour)
	s.Cluster.SetDown(0, true)
	s.Cluster.SetDown(1, true)
	var result *AccessResult
	s.RequestAccess(10, "d", func(r AccessResult) { result = &r })
	s.Run(3 * time.Hour)
	if result == nil || result.Source != 8 {
		t.Fatalf("2-hop P2P result = %+v, want source 8", result)
	}
}

func TestP2PFallbackDisabled(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(37)
	cfg.Churn = false
	cfg.P2PFallback = false
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(8, "d", 1e6)
	s.Run(time.Hour)
	s.Cluster.SetDown(0, true)
	s.Cluster.SetDown(1, true)
	var result *AccessResult
	s.RequestAccess(9, "d", func(r AccessResult) { result = &r })
	s.Run(2 * time.Hour)
	if result == nil || result.Outcome != Unavailable {
		t.Fatalf("disabled fallback result = %+v, want Unavailable", result)
	}
	if s.P2PLookups != 0 {
		t.Fatal("disabled fallback performed lookups")
	}
}

func TestP2PFallbackBeyondTwoHopsFails(t *testing.T) {
	users, edges := mixedCommunity()
	cfg := DefaultConfig(41)
	cfg.Churn = false
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Owner 10 publishes; requester 2 is 1-10: 2-1-6-7-8-9-10 → 5+ hops.
	s.PublishDataset(10, "d", 1e6)
	s.Run(time.Hour)
	s.Cluster.SetDown(0, true)
	s.Cluster.SetDown(1, true)
	var result *AccessResult
	s.RequestAccess(2, "d", func(r AccessResult) { result = &r })
	s.Run(2 * time.Hour)
	if result == nil || result.Outcome != Unavailable {
		t.Fatalf("distant P2P result = %+v, want Unavailable (beyond gossip horizon)", result)
	}
}
