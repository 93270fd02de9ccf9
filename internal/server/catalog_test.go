package server

import (
	"fmt"
	"sync"
	"testing"

	"scdn/internal/allocation"
	"scdn/internal/storage"
)

// catalogFixture builds a catalog over a registry with members nodes
// 1..members (all online, sites 0..members-1) and datasets
// ds-000..ds-(datasets-1) owned round-robin.
func catalogFixture(t testing.TB, members, datasets int) (*Catalog, []storage.DatasetID) {
	t.Helper()
	reg := NewRegistry()
	for i := 0; i < members; i++ {
		reg.Register(Member{Node: allocation.NodeID(i + 1), Site: i, Online: true})
	}
	cat := NewCatalog(reg)
	var ids []storage.DatasetID
	for d := 0; d < datasets; d++ {
		id := storage.DatasetID(fmt.Sprintf("ds-%03d", d))
		origin := allocation.NodeID(d%members + 1)
		if err := cat.RegisterDataset(id, origin, 1024); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return cat, ids
}

// TestCatalogShardCount checks that NewCatalog and the deprecated
// NewCatalogSharded shim both build catalogShardCount shards, and
// that the ID hash reaches every one of them.
func TestCatalogShardCount(t *testing.T) {
	cat, ids := catalogFixture(t, 4, 256)
	if cat.ShardCount() != catalogShardCount {
		t.Fatalf("shards = %d, want %d", cat.ShardCount(), catalogShardCount)
	}
	shim, err := NewCatalogSharded(1, NewRegistry(), 3)
	if err != nil || shim.ShardCount() != catalogShardCount {
		t.Fatalf("shim shards = %d (err %v), want %d", shim.ShardCount(), err, catalogShardCount)
	}
	used := make(map[*catalogShard]bool)
	for _, id := range ids {
		used[cat.shard(id)] = true
	}
	if len(used) != catalogShardCount {
		t.Fatalf("%d datasets reached %d of %d shards", len(ids), len(used), catalogShardCount)
	}
}

func TestCatalogShardedSemantics(t *testing.T) {
	cat, ids := catalogFixture(t, 4, 40)

	// Every dataset resolves regardless of which shard it hashed into.
	for _, id := range ids {
		rep, ok, err := cat.Resolve(id, 2)
		if err != nil || !ok {
			t.Fatalf("resolve %s = %v ok=%v", id, err, ok)
		}
		origin, err := cat.Origin(id)
		if err != nil || rep.Node != origin {
			t.Fatalf("resolve %s → node %d, origin %d (err %v)", id, rep.Node, origin, err)
		}
		if n, err := cat.DatasetBytes(id); err != nil || n != 1024 {
			t.Fatalf("bytes %s = %d, %v", id, n, err)
		}
	}

	// Datasets merges across shards, sorted, complete.
	all, err := cat.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ids) {
		t.Fatalf("datasets = %d, want %d", len(all), len(ids))
	}
	for i, id := range all {
		if id != ids[i] {
			t.Fatalf("datasets[%d] = %s, want %s (merged order broken)", i, id, ids[i])
		}
	}

	// Replica bookkeeping routes to the owning shard.
	if err := cat.AddReplica(ids[0], 3, 0); err != nil {
		t.Fatal(err)
	}
	if got := cat.ReplicaCount(ids[0]); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	if err := cat.RemoveReplica(ids[0], 3); err != nil {
		t.Fatal(err)
	}
	if got := cat.ReplicaCount(ids[0]); got != 1 {
		t.Fatalf("replica count after removal = %d, want 1", got)
	}
}

// TestCatalogConcurrentAccess hammers overlapping datasets with resolves,
// replica add/remove cycles, and read-side scans from many goroutines.
// Run with -race (make race covers this package) — it is the regression
// gate for the sharded catalog's locking.
func TestCatalogConcurrentAccess(t *testing.T) {
	const (
		goroutines = 16
		iters      = 300
	)
	cat, ids := catalogFixture(t, 8, 12)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Writers get a node of their own so AddReplica dup errors stay
			// deterministic per goroutine; all goroutines overlap on ids.
			node := allocation.NodeID(g%8 + 1)
			for i := 0; i < iters; i++ {
				id := ids[(g+i)%len(ids)]
				switch i % 5 {
				case 0:
					if _, _, err := cat.Resolve(id, node); err != nil {
						t.Errorf("resolve: %v", err)
						return
					}
				case 1:
					// Add/remove may race with another goroutine using the
					// same node: dup/missing errors are expected outcomes,
					// only data races are failures.
					_ = cat.AddReplica(id, node, 0)
				case 2:
					_ = cat.RemoveReplica(id, node)
				case 3:
					if _, err := cat.Replicas(id); err != nil {
						t.Errorf("replicas: %v", err)
						return
					}
					if _, err := cat.Origin(id); err != nil {
						t.Errorf("origin: %v", err)
						return
					}
					if _, err := cat.DatasetBytes(id); err != nil {
						t.Errorf("bytes: %v", err)
						return
					}
				case 4:
					if _, err := cat.Datasets(); err != nil {
						t.Errorf("datasets: %v", err)
						return
					}
					cat.MaintenanceSweep()
					cat.ReplicaCount(id)
				}
			}
		}(g)
	}
	wg.Wait()

	// The catalog must still be coherent: every dataset resolves and the
	// origin replica survived every remove cycle.
	for _, id := range ids {
		if _, ok, err := cat.Resolve(id, 1); err != nil || !ok {
			t.Fatalf("post-race resolve %s = ok=%v err=%v", id, ok, err)
		}
		if cat.ReplicaCount(id) < 1 {
			t.Fatalf("dataset %s lost its origin replica", id)
		}
	}
	// The loop above resolved every dataset, so at a threshold of one
	// every dataset has recorded demand.
	cat.SetPolicy(1<<20, 1)
	if hot := cat.MaintenanceSweep(); len(hot) != len(ids) {
		t.Fatalf("sweep lists %d datasets with demand, want %d", len(hot), len(ids))
	}
}

// TestCatalogConcurrentRegister checks racing registrations of disjoint
// and duplicate datasets.
func TestCatalogConcurrentRegister(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 4; i++ {
		reg.Register(Member{Node: allocation.NodeID(i + 1), Site: i, Online: true})
	}
	cat := NewCatalog(reg)
	const n = 64
	var wg sync.WaitGroup
	var dups sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for d := 0; d < n; d++ {
				id := storage.DatasetID(fmt.Sprintf("reg-%03d", d))
				if err := cat.RegisterDataset(id, allocation.NodeID(d%4+1), 64); err != nil {
					dups.Store(fmt.Sprintf("%d/%s", g, id), true) // expected for losers
				}
			}
		}(g)
	}
	wg.Wait()
	all, err := cat.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("registered %d datasets, want %d", len(all), n)
	}
}

// TestCatalogDemandSweep drives the demand-driven maintenance path
// (SetPolicy, MaintenanceSweep, AckSweep) through the sharded catalog:
// per-dataset demand is counted in the owning shard, the merged
// recommendations come back sorted, a dataset at its replica budget is
// never recommended, and demand that arrives between a sweep and its
// acknowledgment survives the ack.
func TestCatalogDemandSweep(t *testing.T) {
	const (
		maxReplicas = 3
		threshold   = 3
	)
	cat, ids := catalogFixture(t, 4, 40)
	cat.SetPolicy(maxReplicas, threshold)

	// Dataset i is resolved i%5 times: 0..4 accesses, so some datasets
	// sit below the threshold and some at or above it.
	want := make(map[storage.DatasetID]uint64)
	for i, id := range ids {
		k := i % 5
		for j := 0; j < k; j++ {
			if _, ok, err := cat.Resolve(id, 1); err != nil || !ok {
				t.Fatalf("resolve %s: ok=%v err=%v", id, ok, err)
			}
		}
		if k >= threshold {
			want[id] = uint64(k)
		}
	}

	// Fill one hot dataset up to its replica budget: it has demand but
	// no room for another replica, so the sweep must skip it.
	var full storage.DatasetID
	for _, id := range ids {
		if _, hot := want[id]; hot {
			full = id
			break
		}
	}
	origin, err := cat.Origin(full)
	if err != nil {
		t.Fatal(err)
	}
	for node := allocation.NodeID(1); cat.ReplicaCount(full) < maxReplicas; node++ {
		if node != origin {
			if err := cat.AddReplica(full, node, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	delete(want, full)

	hot := cat.MaintenanceSweep()
	if len(hot) != len(want) {
		t.Fatalf("sweep lists %d datasets, want %d: %+v", len(hot), len(want), hot)
	}
	shards := make(map[*catalogShard]bool)
	for i, h := range hot {
		if i > 0 && hot[i-1].ID >= h.ID {
			t.Fatalf("sweep not sorted by ID: %s before %s", hot[i-1].ID, h.ID)
		}
		if h.Accesses != want[h.ID] {
			t.Fatalf("%s: accesses = %d, want %d", h.ID, h.Accesses, want[h.ID])
		}
		if h.ID == full {
			t.Fatalf("%s is at its replica budget but was recommended", full)
		}
		shards[cat.shard(h.ID)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("hot datasets span %d shard(s); the merge is untested", len(shards))
	}

	// One resolve lands between the sweep and its acknowledgment. The
	// ack subtracts only what the sweep observed, so that access alone
	// remains; datasets the sweep never listed keep their demand.
	late := hot[len(hot)-1].ID
	if _, _, err := cat.Resolve(late, 2); err != nil {
		t.Fatal(err)
	}
	cat.AckSweep(hot)
	cat.SetPolicy(maxReplicas, 1)
	left := make(map[storage.DatasetID]uint64)
	for _, h := range cat.MaintenanceSweep() {
		left[h.ID] = h.Accesses
	}
	for i, id := range ids {
		wantLeft := uint64(i % 5)
		switch {
		case id == late:
			wantLeft = 1
		case id == full:
			continue // at budget: never listed
		case wantLeft >= threshold:
			wantLeft = 0 // acknowledged
		}
		if left[id] != wantLeft {
			t.Fatalf("after ack: %s has %d accesses listed, want %d", id, left[id], wantLeft)
		}
	}
}

// TestCatalogConcurrentResolveDemand runs resolves against a sweeper
// that acknowledges what it sees; run with -race. No access may be lost or
// counted twice: what the sweeper acknowledged plus what the last
// sweep still lists is exactly the number of resolves.
func TestCatalogConcurrentResolveDemand(t *testing.T) {
	const (
		workers   = 8
		perWorker = 500
	)
	cat, ids := catalogFixture(t, 4, 8)
	cat.SetPolicy(10, 1)
	stop := make(chan struct{})
	sweeperDone := make(chan uint64)
	go func() {
		var acked uint64
		for {
			select {
			case <-stop:
				sweeperDone <- acked
				return
			default:
			}
			hot := cat.MaintenanceSweep()
			cat.AckSweep(hot)
			for _, h := range hot {
				acked += h.Accesses
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := ids[(w+i)%len(ids)]
				if _, ok, err := cat.Resolve(id, allocation.NodeID(w%4+1)); err != nil || !ok {
					t.Errorf("resolve %s: ok=%v err=%v", id, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	total := <-sweeperDone
	for _, h := range cat.MaintenanceSweep() {
		total += h.Accesses
	}
	if total != workers*perWorker {
		t.Fatalf("demand total = %d, want %d", total, workers*perWorker)
	}
	var lookups uint64
	for _, s := range cat.shards {
		lookups += s.srv.Lookups
	}
	if lookups != workers*perWorker {
		t.Fatalf("lookups = %d, want %d", lookups, workers*perWorker)
	}
}
