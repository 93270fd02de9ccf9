package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"scdn/internal/allocation"
	"scdn/internal/storage"
)

// Allocation budgets for the warm serving hot paths, in allocs/op.
// These are ratchets, not aspirations: the values pin what the current
// code achieves so a future change cannot silently re-inflate the hot
// path (ISSUE 7 acceptance: warm full-GET at or under the pre-refactor
// 4 allocs). Lower them when the paths get leaner; never raise one
// without a comment explaining what the new allocation buys.
const (
	allocBudgetDiskFull  = 0 // sendfile + pooled scratch: nothing left to allocate
	allocBudgetDiskRange = 0
	allocBudgetGenFull   = 0 // pooled copy buffer + pooled scratch
	allocBudgetGenRange  = 0
	// The warm segmented path crosses segment boundaries (pooled FDs,
	// interned segment keys) and must stay as lean as the whole-file
	// path (ISSUE 8 acceptance).
	allocBudgetSegFull  = 0
	allocBudgetSegRange = 0
	// GET /v1/fetch/{id}/segments/{n} answers through the same source
	// and range writer as the fetch path, from a per-segment file, a
	// window of a whole-file replica, or the generator.
	allocBudgetSegEndpointSegment = 0
	allocBudgetSegEndpointFile    = 0
	allocBudgetSegEndpointGen     = 0
	// Resolve walks the sharded catalog and copies one replica record
	// out under the shard lock; the copy and the per-call rand draw
	// dominate.
	allocBudgetResolve = 4
)

// serveAllocs measures steady-state allocs/op of the warm local serve
// path for the given store mode and Range header.
func serveAllocs(t *testing.T, n *Node, total int64, rangeHdr string) float64 {
	t.Helper()
	const id = storage.DatasetID("alloc-serve")
	req := httptest.NewRequest(http.MethodGet, "/v1/fetch/alloc-serve", nil)
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	rngs, isRange, err := parseRanges(rangeHdr, total)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, rng := range rngs {
		want += rng.n
	}
	w := &benchRW{h: make(http.Header)}
	for i := 0; i < 3; i++ { // warm: materialize replica, prime block + scratch pools
		w.n = 0
		if !n.serveLocal(w, req, id, rngs, isRange, total) {
			t.Fatal("serveLocal failed")
		}
	}
	return testing.AllocsPerRun(200, func() {
		w.n = 0
		n.serveLocal(w, req, id, rngs, isRange, total)
		if w.n != want {
			t.Fatalf("served %d bytes, want %d", w.n, want)
		}
	})
}

// segmentEndpointAllocs measures steady-state allocs/op of the segment
// endpoint handler answering segment 1 of the cluster's one dataset
// locally, auth and catalog lookups included.
func segmentEndpointAllocs(t *testing.T, lc *LocalCluster) float64 {
	t.Helper()
	n, id := lc.Nodes[0], lc.DatasetIDs[0]
	req := httptest.NewRequest(http.MethodGet, "/v1/fetch/"+string(id)+"/segments/1", nil)
	req.SetPathValue("dataset", string(id))
	req.SetPathValue("n", "1")
	req.Header.Set("Authorization", "Bearer "+string(login(t, lc)))
	want := storage.SegmentExtent(lc.Config.DatasetBytes, lc.Config.SegmentSize, 1)
	w := &benchRW{h: make(http.Header)}
	serve := func() {
		w.n = 0
		n.handleFetchSegment(w, req)
		if w.n != want {
			t.Fatalf("served %d bytes, want %d", w.n, want)
		}
	}
	for i := 0; i < 3; i++ { // warm: materialize, prime block + scratch pools
		serve()
	}
	if n.Metrics.LocalHits.Value() != 3 {
		t.Fatal("segment endpoint did not serve locally")
	}
	return testing.AllocsPerRun(200, serve)
}

// TestServeAllocBudgets pins the warm-path allocation budgets. Skipped
// under -race: detector instrumentation allocates where production
// builds do not.
func TestServeAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const total = int64(256 << 10)
	const rangeHdr = "bytes=5000-70535" // 64 KiB, mid-block offset
	newDiskNode := func(t *testing.T) *Node {
		vol, err := storage.NewDiskVolume(t.TempDir(), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return benchNode(vol)
	}
	// Segmented node: 64 KiB segments with the threshold at one segment,
	// so the 256 KiB test dataset takes the segmented layout (4 segments;
	// the range below crosses the 0-1 boundary).
	newSegNode := func(t *testing.T) *Node {
		n := newDiskNode(t)
		n.cfg.SegmentSize = 64 << 10
		n.cfg.SegmentThreshold = 64 << 10
		return n
	}
	cases := []struct {
		name     string
		node     func(*testing.T) *Node
		rangeHdr string
		budget   float64
	}{
		{"disk/full", newDiskNode, "", allocBudgetDiskFull},
		{"disk/range", newDiskNode, rangeHdr, allocBudgetDiskRange},
		{"generated/full", func(*testing.T) *Node { return benchNode(nil) }, "", allocBudgetGenFull},
		{"generated/range", func(*testing.T) *Node { return benchNode(nil) }, rangeHdr, allocBudgetGenRange},
		{"segment/full", newSegNode, "", allocBudgetSegFull},
		{"segment/range", newSegNode, rangeHdr, allocBudgetSegRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := serveAllocs(t, tc.node(t), total, tc.rangeHdr)
			if got > tc.budget {
				t.Errorf("warm %s = %.1f allocs/op, budget %.0f — the hot path re-inflated", tc.name, got, tc.budget)
			}
		})
	}

	// The segment endpoint runs on a one-node cluster (the handler needs
	// auth and the catalog) with the sweeper off, so no background
	// goroutine allocates while the budget is measured.
	segCluster := func(t *testing.T, mode string) *LocalCluster {
		return startCluster(t, ClusterConfig{
			Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: total, StoreMode: mode,
			SegmentSize: 64 << 10, SegmentThreshold: 64 << 10, Sweep: SweeperConfig{Disabled: true},
		})
	}
	segCases := []struct {
		name   string
		lc     func(*testing.T) *LocalCluster
		budget float64
	}{
		{"segment-endpoint/segment-file", func(t *testing.T) *LocalCluster {
			return segCluster(t, StoreModeDir)
		}, allocBudgetSegEndpointSegment},
		{"segment-endpoint/whole-file", func(t *testing.T) *LocalCluster {
			lc := segCluster(t, StoreModeDir)
			if !lc.Nodes[0].materialize(lc.DatasetIDs[0], total) {
				t.Fatal("materialize failed")
			}
			return lc
		}, allocBudgetSegEndpointFile},
		{"segment-endpoint/generated", func(t *testing.T) *LocalCluster {
			return segCluster(t, StoreModeGenerated)
		}, allocBudgetSegEndpointGen},
	}
	for _, tc := range segCases {
		t.Run(tc.name, func(t *testing.T) {
			got := segmentEndpointAllocs(t, tc.lc(t))
			if got > tc.budget {
				t.Errorf("warm %s = %.1f allocs/op, budget %.0f — the hot path re-inflated", tc.name, got, tc.budget)
			}
		})
	}
}

// TestResolveAllocBudget pins the catalog resolve hot path (the lookup
// every striped client pays once per dataset before its range fetches).
func TestResolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	reg := NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Register(Member{Node: allocation.NodeID(i + 1), Site: i, Online: true})
	}
	cat, err := NewCatalogSharded(2, reg, DefaultCatalogShards)
	if err != nil {
		t.Fatal(err)
	}
	var ids []storage.DatasetID
	for d := 0; d < 64; d++ {
		id := storage.DatasetID(fmt.Sprintf("alloc-%03d", d))
		if err := cat.RegisterDataset(id, allocation.NodeID(d%8+1), 1024); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	i := 0
	got := testing.AllocsPerRun(500, func() {
		id := ids[i%len(ids)]
		if _, ok, err := cat.Resolve(id, allocation.NodeID(i%8+1)); err != nil || !ok {
			t.Fatalf("resolve %s: ok=%v err=%v", id, ok, err)
		}
		i++
	})
	if got > allocBudgetResolve {
		t.Errorf("warm resolve = %.1f allocs/op, budget %d", got, allocBudgetResolve)
	}
}
