package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"scdn/internal/storage"
)

// Allocation budgets for the warm serving hot paths, in allocs/op.
// These are ratchets, not aspirations: the values pin what the current
// code achieves so a future change cannot silently re-inflate the hot
// path (ISSUE 7 acceptance: warm full-GET at or under the pre-refactor
// 4 allocs). Lower them when the paths get leaner; never raise one
// without a comment explaining what the new allocation buys.
const (
	// A warm whole-file serve is sendfile through the pooled scratch.
	allocBudgetDiskFull  = 0
	allocBudgetDiskRange = 0
	// The warm segmented path crosses segment boundaries (pooled FDs,
	// interned segment keys) and must stay as lean as the whole-file
	// path (ISSUE 8 acceptance).
	allocBudgetSegFull  = 0
	allocBudgetSegRange = 0
	// GET /v1/fetch/{id}/segments/{n} answers through the same source
	// and range writer as the fetch path, from a per-segment file or a
	// window of a whole-file replica.
	allocBudgetSegEndpointSegment = 0
	allocBudgetSegEndpointFile    = 0
	// The fetch handler itself, auth, catalog and Range parsing included:
	// the parsed parts live in the handler's stack array. Since every
	// case drives a route's handler, these measure what the disk cases
	// measure; each pair must stay equal.
	allocBudgetFetchHandlerFull  = 0
	allocBudgetFetchHandlerRange = 0
	// A multipart answer allocates its random boundary (one string the
	// Content-Type value and the framing share), the Content-Length
	// string, and the two header-value slices: net/http may read a HEAD's
	// header map after the handler returns, so these never alias pooled
	// memory.
	allocBudgetDiskMultipart = 4
	allocBudgetSegMultipart  = 4
	// Resolve scans the record's holders, kept sorted by node, in
	// place under the shard's read lock.
	allocBudgetResolve = 0
	// A repair pass over datasets at their live-copy floor reads the
	// live view, each shard's IDs and each dataset's holders into the
	// sweep's reused scratch slices and counts the live holders.
	allocBudgetRepairAtFloor = 0
)

// settledAllocsPerRun is testing.AllocsPerRun over a settled process.
// AllocsPerRun counts the mallocs of every goroutine, not only f's, so
// first the idle keep-alive connections of earlier tests are closed,
// and garbage is collected until the goroutine count stops falling:
// the goroutines those connections and earlier clusters leave behind
// have exited before the count starts.
func settledAllocsPerRun(runs int, f func()) float64 {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for i, n := 0, -1; i < 10 && n != runtime.NumGoroutine(); i++ {
		n = runtime.NumGoroutine()
		runtime.GC()
	}
	return testing.AllocsPerRun(runs, f)
}

// handlerAllocs measures steady-state allocs/op of a fetch route's
// handler answering path on the cluster's one node locally, auth and
// catalog lookups included. The body must be the windows of rangeHdr
// (the whole dataset, or the one segment of a segment route), plus the
// framing of a multipart answer; the served-bytes counter must see the
// payload alone.
func handlerAllocs(t *testing.T, lc *LocalCluster, segment bool, rangeHdr string) float64 {
	t.Helper()
	n, id := lc.Nodes[0], lc.DatasetIDs[0]
	handle, path := n.handleFetch, "/v1/fetch/"+string(id)
	if segment {
		handle, path = n.handleFetchSegment, path+"/segments/1"
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.SetPathValue("dataset", string(id))
	req.SetPathValue("n", "1")
	req.Header.Set("Authorization", "Bearer "+string(login(t, lc)))
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	total := lc.Config.DatasetBytes
	rngs, _, err := parseRanges(nil, rangeHdr, total)
	if err != nil {
		t.Fatal(err)
	}
	var payload, framing int64
	for _, rng := range rngs {
		payload += rng.n
	}
	if len(rngs) > 1 {
		framing = multipartLength(rngs, total) - payload
	}
	if segment {
		payload = storage.SegmentExtent(total, lc.Config.SegmentSize, 1)
	}
	w := &benchRW{h: make(http.Header)}
	serve := func() {
		w.n = 0
		before := n.Metrics.BytesServed.Value()
		handle(w, req)
		if w.n != payload+framing {
			t.Fatalf("wrote %d bytes, want %d payload + %d framing", w.n, payload, framing)
		}
		if got := int64(n.Metrics.BytesServed.Value() - before); got != payload {
			t.Fatalf("counted %d served bytes, want %d", got, payload)
		}
	}
	for i := 0; i < 3; i++ { // warm: materialize, prime scratch pools
		serve()
	}
	if n.Metrics.LocalHits.Value() != 3 {
		t.Fatalf("%s did not serve locally", path)
	}
	return settledAllocsPerRun(200, serve)
}

// TestServeAllocBudgets pins the warm-path allocation budgets. Each case
// drives a fetch route's handler on a one-node cluster with the sweeper
// off, so no background goroutine allocates while the budget is
// measured. Skipped under -race: detector instrumentation allocates
// where production builds do not.
func TestServeAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const total = int64(256 << 10)
	const rangeHdr = "bytes=5000-70535" // 64 KiB, mid-block offset
	// Three parts: a head, a window across the first segment boundary,
	// and a tail.
	const multipartHdr = "bytes=0-1023,60000-70535,-4096"
	// The segmented cluster's 64 KiB segments with the threshold at one
	// segment put the 256 KiB dataset in the segmented layout (4
	// segments; the range above crosses the 0-1 boundary).
	cluster := func(t *testing.T, segThreshold int64) *LocalCluster {
		return startCluster(t, ClusterConfig{
			Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: total,
			SegmentSize: 64 << 10, SegmentThreshold: segThreshold, Sweep: SweeperConfig{Disabled: true},
		})
	}
	segCluster := func(t *testing.T) *LocalCluster { return cluster(t, 64<<10) }
	flatCluster := func(t *testing.T) *LocalCluster { return cluster(t, 0) }
	cases := []struct {
		name     string
		lc       func(*testing.T) *LocalCluster
		segment  bool
		rangeHdr string
		budget   float64
	}{
		{"disk/full", flatCluster, false, "", allocBudgetDiskFull},
		{"disk/range", flatCluster, false, rangeHdr, allocBudgetDiskRange},
		{"segment/full", segCluster, false, "", allocBudgetSegFull},
		{"segment/range", segCluster, false, rangeHdr, allocBudgetSegRange},
		{"disk/multipart", flatCluster, false, multipartHdr, allocBudgetDiskMultipart},
		{"segment/multipart", segCluster, false, multipartHdr, allocBudgetSegMultipart},
		{"segment-endpoint/segment-file", segCluster, true, "", allocBudgetSegEndpointSegment},
		{"segment-endpoint/whole-file", func(t *testing.T) *LocalCluster {
			lc := segCluster(t)
			if id := lc.DatasetIDs[0]; !lc.Nodes[0].materialize(id, id, 0, total) {
				t.Fatal("materialize failed")
			}
			return lc
		}, true, "", allocBudgetSegEndpointFile},
		{"fetch-handler/full", flatCluster, false, "", allocBudgetFetchHandlerFull},
		{"fetch-handler/range", flatCluster, false, rangeHdr, allocBudgetFetchHandlerRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := handlerAllocs(t, tc.lc(t), tc.segment, tc.rangeHdr)
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
		reg.Register(Member{Node: storage.NodeID(i + 1), Site: i, Online: true})
	}
	cat := NewCatalog(reg)
	var ids []storage.DatasetID
	for d := 0; d < 64; d++ {
		id := storage.DatasetID(fmt.Sprintf("alloc-%03d", d))
		if err := cat.RegisterDataset(id, storage.NodeID(d%8+1), 1024); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	i := 0
	got := settledAllocsPerRun(500, func() {
		id := ids[i%len(ids)]
		if _, ok, err := cat.Resolve(id, storage.NodeID(i%8+1)); err != nil || !ok {
			t.Fatalf("resolve %s: ok=%v err=%v", id, ok, err)
		}
		i++
	})
	if got > allocBudgetResolve {
		t.Errorf("warm resolve = %.1f allocs/op, budget %d", got, allocBudgetResolve)
	}
}

// TestRepairAtFloorAllocBudget pins a whole repair pass over a healthy
// catalog — every dataset at its live-copy floor, as on every sweep of
// every node — at zero allocations: the live view, the shard IDs and
// the holders are read into the sweep's scratch slices and only
// counted.
func TestRepairAtFloorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	lc := startCluster(t, ClusterConfig{Nodes: 3, Users: 1, Datasets: 16,
		Sweep: SweeperConfig{Disabled: true}})
	for d, id := range lc.DatasetIDs {
		// A second holder beside the origin puts each dataset at a
		// floor of two.
		if err := lc.Catalog.AddReplica(id, storage.NodeID((d+1)%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	n, ctx := lc.Nodes[0], context.Background()
	st := newSweepState()
	sweep := func() { n.repairReplication(ctx, st) }
	sweep() // grows the scratch slices once
	if got := settledAllocsPerRun(100, sweep); got > allocBudgetRepairAtFloor {
		t.Errorf("at-floor repair pass over %d datasets = %.1f allocs/op, budget %d",
			len(lc.DatasetIDs), got, allocBudgetRepairAtFloor)
	}
	if len(st.below) != 0 {
		t.Errorf("datasets at their floor counted as below it: %v", st.below)
	}
	for _, id := range lc.DatasetIDs {
		if c := len(lc.Catalog.AppendHolders(nil, id)); c != 2 {
			t.Errorf("%s: %d holders after at-floor sweeps, want 2", id, c)
		}
	}
}
