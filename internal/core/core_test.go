package core

import (
	"strings"
	"testing"
	"time"

	"scdn/internal/graph"
	"scdn/internal/metrics"
	"scdn/internal/sim"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
	"scdn/internal/workload"
)

// smallCommunity builds a 6-user community: two triads bridged by an edge.
func smallCommunity() ([]User, []Edge) {
	users := make([]User, 0, 6)
	for i := 1; i <= 6; i++ {
		users = append(users, User{
			ID: graph.NodeID(i), Name: "u", SiteID: i - 1,
			CapacityBytes: 10e9, ReplicaReserveBytes: 5e9,
			Institutional: true, // deterministic tests: no churn
		})
	}
	edges := []Edge{
		{A: 1, B: 2, Type: socialnet.Coauthor, Strength: 2},
		{A: 2, B: 3, Type: socialnet.Coauthor, Strength: 1},
		{A: 1, B: 3, Type: socialnet.Coauthor, Strength: 1},
		{A: 4, B: 5, Type: socialnet.Coauthor, Strength: 3},
		{A: 5, B: 6, Type: socialnet.Coauthor, Strength: 1},
		{A: 4, B: 6, Type: socialnet.Coauthor, Strength: 1},
		{A: 3, B: 4, Type: socialnet.Colleague, Strength: 1},
	}
	return users, edges
}

func newSystem(t *testing.T) *SCDN {
	t.Helper()
	users, edges := smallCommunity()
	cfg := DefaultConfig(7)
	cfg.Churn = false
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(1), nil, nil); err == nil {
		t.Fatal("empty community accepted")
	}
	users, _ := smallCommunity()
	bad := []Edge{{A: 1, B: 99}}
	if _, err := New(DefaultConfig(1), users, bad); err == nil {
		t.Fatal("edge to unknown user accepted")
	}
}

func TestUsersAndAccessors(t *testing.T) {
	s := newSystem(t)
	ids := s.Users()
	if len(ids) != 6 || ids[0] != 1 || ids[5] != 6 {
		t.Fatalf("users = %v", ids)
	}
	if _, err := s.Client(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Client(99); err == nil {
		t.Fatal("unknown client resolved")
	}
	if _, err := s.Repository(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repository(99); err == nil {
		t.Fatal("unknown repository resolved")
	}
}

func TestPublishDataset(t *testing.T) {
	s := newSystem(t)
	if err := s.PublishDataset(1, "d1", 1e9); err != nil {
		t.Fatal(err)
	}
	repo, _ := s.Repository(1)
	if !repo.HasLocal("d1") {
		t.Fatal("origin copy missing")
	}
	if err := s.PublishDataset(99, "d2", 1); err == nil {
		t.Fatal("unknown owner accepted")
	}
	if err := s.PublishDataset(1, "d1", 1e9); err == nil {
		t.Fatal("duplicate publish accepted")
	}
}

func TestPlaceReplicasAndAccess(t *testing.T) {
	s := newSystem(t)
	if err := s.PublishDataset(1, "d1", 1e9); err != nil {
		t.Fatal(err)
	}
	placed, err := s.PlaceReplicas("d1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 2 {
		t.Fatalf("placed = %v", placed)
	}
	// Run the sim so transfers complete and replicas register.
	s.Run(2 * time.Hour)
	reps, err := s.Cluster.Replicas("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 { // origin + 2
		t.Fatalf("replicas = %d, want 3", len(reps))
	}
	if s.Social.AcceptanceRate() != 1 {
		t.Fatalf("acceptance = %v", s.Social.AcceptanceRate())
	}

	// A far user accesses the data.
	var result *AccessResult
	if err := s.RequestAccess(6, "d1", func(r AccessResult) { result = &r }); err != nil {
		t.Fatal(err)
	}
	s.Run(6 * time.Hour)
	if result == nil {
		t.Fatal("access never completed")
	}
	if result.Outcome != ReplicaFetch && result.Outcome != OriginFetch {
		t.Fatalf("outcome = %v", result.Outcome)
	}
	if s.CDN.RequestsServed.Value() != 1 {
		t.Fatalf("served = %d", s.CDN.RequestsServed.Value())
	}
	repo6, _ := s.Repository(6)
	if !repo6.HasLocal("d1") {
		t.Fatal("fetched data not in requester's folder")
	}
	// Second access: local hit.
	s.RequestAccess(6, "d1", nil)
	s.Run(7 * time.Hour)
	if s.CDN.LocalHits.Value() != 1 {
		t.Fatalf("local hits = %d", s.CDN.LocalHits.Value())
	}
}

func TestRequestAccessUnknownUser(t *testing.T) {
	s := newSystem(t)
	if err := s.RequestAccess(99, "d", nil); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestAccessDeniedOutsideGroup(t *testing.T) {
	s := newSystem(t)
	s.PublishDataset(1, "d1", 1e6)
	// Remove user 6 from the collaboration group.
	s.Platform.LeaveGroup(s.Config.GroupName, 6)
	var result *AccessResult
	s.RequestAccess(6, "d1", func(r AccessResult) { result = &r })
	s.Run(time.Hour)
	if result == nil || result.Outcome != Denied {
		t.Fatalf("result = %+v, want Denied", result)
	}
	if s.CDN.RequestsFailed.Value() != 1 {
		t.Fatal("denied access not counted as failed")
	}
}

func TestChurnMakesNodesOffline(t *testing.T) {
	users, edges := smallCommunity()
	for i := range users {
		users[i].Institutional = false
	}
	cfg := DefaultConfig(11)
	cfg.Churn = true
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	offline := 0
	for hour := 0; hour < 24; hour++ {
		for _, id := range s.Users() {
			if !s.OnlineAt(id, time.Duration(hour)*time.Hour) {
				offline++
			}
		}
	}
	if offline == 0 {
		t.Fatal("diurnal churn produced no offline slots")
	}
	if s.OnlineAt(99, 0) {
		t.Fatal("unknown user reported online")
	}
}

func TestMaintenanceReplicatesHotData(t *testing.T) {
	users, edges := smallCommunity()
	cfg := DefaultConfig(13)
	cfg.Churn = false
	cfg.DemandThreshold = 3
	cfg.MaintenanceInterval = time.Hour
	s, err := New(cfg, users, edges)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishDataset(1, "hot", 1e6)
	before := s.Cluster.ReplicaCount("hot")
	// Distinct users hammer the dataset (each fetch is remote once, then
	// local, so use many users for sustained demand).
	for round := 0; round < 3; round++ {
		for _, u := range []graph.NodeID{2, 3, 4, 5, 6} {
			u := u
			at := time.Duration(round)*20*time.Minute + time.Duration(u)*time.Minute
			s.Engine.ScheduleAt(toSimTime(at), func() {
				repo, _ := s.Repository(u)
				// Drop any cached copy so demand keeps hitting the cluster.
				if repo.HasLocal("hot") {
					// Re-request anyway; local hits don't touch the cluster,
					// so force a resolve by accessing through the cluster
					// directly for demand accounting.
					s.Cluster.Resolve("hot", int64(u))
					return
				}
				s.RequestAccess(u, "hot", nil)
			})
		}
	}
	s.Run(5 * time.Hour)
	after := s.Cluster.ReplicaCount("hot")
	if after <= before {
		t.Fatalf("maintenance did not add replicas: %d → %d", before, after)
	}
}

func TestLoadRequestsDrivesWorkload(t *testing.T) {
	s := newSystem(t)
	s.PublishDataset(1, "a", 1e6)
	s.PublishDataset(4, "b", 1e6)
	reqs := []workload.Request{
		{At: time.Minute, User: 2, Data: "a"},
		{At: 2 * time.Minute, User: 5, Data: "b"},
		{At: 3 * time.Minute, User: 6, Data: "a"},
	}
	s.LoadRequests(reqs)
	s.Run(2 * time.Hour)
	total := s.CDN.RequestsServed.Value() + s.CDN.RequestsFailed.Value()
	if total != 3 {
		t.Fatalf("requests handled = %d, want 3", total)
	}
}

func TestSamplingPopulatesMetrics(t *testing.T) {
	s := newSystem(t)
	s.PublishDataset(1, "d", 1e6)
	s.Run(5 * time.Hour)
	if s.CDN.AvailabilitySamples.Count() == 0 {
		t.Fatal("no availability samples")
	}
	if s.CDN.Availability() != 1 { // all institutional → always on
		t.Fatalf("availability = %v, want 1", s.CDN.Availability())
	}
	if s.CDN.RedundancySamples.Count() == 0 {
		t.Fatal("no redundancy samples")
	}
	var sb strings.Builder
	if err := metrics.Report(&sb, s.CDN, s.Social, 5*time.Hour); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CDN metrics") {
		t.Fatal("report malformed")
	}
}

func TestCommunityFromSubgraphValidation(t *testing.T) {
	if _, _, err := CommunityFromSubgraph(nil, 0.1); err == nil {
		t.Fatal("nil subgraph accepted")
	}
}

func TestTrustAccumulatesFromTransfers(t *testing.T) {
	s := newSystem(t)
	s.PublishDataset(1, "d", 1e6)
	s.RequestAccess(2, "d", nil)
	s.Run(time.Hour)
	if s.Trust.Score(1, 2, time.Hour) <= 0 {
		t.Fatal("completed transfer did not build trust")
	}
}

// toSimTime converts a duration offset to sim time.
func toSimTime(d time.Duration) sim.Time { return sim.Time(d) }

// TestSimulationDeterminism: identical seeds must produce bit-identical
// metrics regardless of wall-clock conditions — the reproducibility
// contract of the whole simulator.
func TestSimulationDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64, uint64, float64) {
		users, edges := smallCommunity()
		for i := range users {
			users[i].Institutional = false
		}
		cfg := DefaultConfig(99)
		cfg.Churn = true
		cfg.MigrationUptimeFloor = 0.5
		s, err := New(cfg, users, edges)
		if err != nil {
			t.Fatal(err)
		}
		s.PublishDataset(1, "a", 50e6)
		s.PublishDataset(4, "b", 80e6)
		s.PlaceReplicas("a", 2)
		s.PlaceReplicas("b", 2)
		reqs := []workload.Request{}
		for i := 0; i < 40; i++ {
			reqs = append(reqs, workload.Request{
				At:   time.Duration(i) * 37 * time.Minute,
				User: graph.NodeID(1 + i%6),
				Data: storageID2(i%2 == 0),
			})
		}
		s.LoadRequests(reqs)
		s.Engine.Schedule(24*time.Hour, func() { s.UpdateDataset("a") })
		s.Run(72 * time.Hour)
		return s.CDN.RequestsServed.Value(), s.CDN.RequestsFailed.Value(),
			s.CDN.ResponseTime.Mean(), s.Social.Exchanges.Value(), s.Replication.StalenessRatio()
	}
	s1, f1, r1, e1, st1 := run()
	s2, f2, r2, e2, st2 := run()
	if s1 != s2 || f1 != f2 || r1 != r2 || e1 != e2 || st1 != st2 {
		t.Fatalf("non-deterministic: (%d,%d,%v,%d,%v) vs (%d,%d,%v,%d,%v)",
			s1, f1, r1, e1, st1, s2, f2, r2, e2, st2)
	}
}

func storageID2(a bool) storage.DatasetID {
	if a {
		return "a"
	}
	return "b"
}
