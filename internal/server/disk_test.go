package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scdn/internal/storage"
)

func TestStoreModeValidation(t *testing.T) {
	for _, mode := range []string{"ramdisk", "generated"} {
		if _, err := StartLocalCluster(ClusterConfig{StoreMode: mode}); err == nil {
			t.Fatalf("store mode %q accepted", mode)
		}
	}
	startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, StoreMode: StoreModeDir,
		Sweep: SweeperConfig{Disabled: true}})
}

func TestDiskModeFullFetch(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1,
	})
	client := &http.Client{Timeout: 5 * time.Second}
	node := lc.Nodes[0]
	tok := login(t, lc)

	// First fetch materializes the replica file, then serves it.
	resp := fetchDataset(t, client, node.BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if src := resp.Header.Get("X-SCDN-Source"); src != "1" {
		t.Fatalf("source = %q, want 1", src)
	}
	if got := node.Metrics.StoreMaterializations.Value(); got != 1 {
		t.Fatalf("materializations = %d, want 1", got)
	}
	if got := node.Metrics.StoreMaterializedBytes.Value(); got != uint64(lc.Config.DatasetBytes) {
		t.Fatalf("materialized bytes = %d, want %d", got, lc.Config.DatasetBytes)
	}
	if got := node.Metrics.StoreDiskHits.Value(); got != 1 {
		t.Fatalf("disk hits = %d, want 1", got)
	}
	// The replica is an extent of a real pack file under the cluster's
	// store root.
	path, off, size, ok := node.Volume().Locate("ds-001")
	if !ok || filepath.Dir(path) != filepath.Join(lc.StoreRoot, "node-1") {
		t.Fatalf("replica located at %q (ok %v), want a pack under node-1", path, ok)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if size != lc.Config.DatasetBytes || fi.Size() < off+size {
		t.Fatalf("replica extent is %d bytes at %d of a %d-byte pack, want %d", size, off, fi.Size(), lc.Config.DatasetBytes)
	}
	if !node.Volume().Has("ds-001") {
		t.Fatal("volume does not report the replica")
	}

	// Warm fetch: served from the same file, no re-materialization.
	fetchDataset(t, client, node.BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if got := node.Metrics.StoreMaterializations.Value(); got != 1 {
		t.Fatalf("warm fetch re-materialized: %d", got)
	}
	if got := node.Metrics.StoreDiskHits.Value(); got != 2 {
		t.Fatalf("disk hits = %d, want 2", got)
	}
	if got := node.Metrics.LocalHits.Value(); got != 2 {
		t.Fatalf("local hits = %d, want 2", got)
	}
}

// TestGeneratorFallback: a volume too small to hold a flat replica
// cannot materialize it, so the holder serves the bytes straight from
// the generator — the same stream, never a failed fetch.
func TestGeneratorFallback(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: 64 << 10,
		StoreQuota: 32 << 10, SegmentThreshold: -1, Sweep: SweeperConfig{Disabled: true},
	})
	client := &http.Client{Timeout: 5 * time.Second}
	node := lc.Nodes[0]
	fetchDataset(t, client, node.BaseURL(), login(t, lc), "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	m := node.Metrics
	if got := m.StoreSpillFailures.Value(); got < 1 {
		t.Fatalf("spill failures = %d, want >= 1 (materialize must have failed)", got)
	}
	if got := m.LocalHits.Value(); got != 1 {
		t.Fatalf("local hits = %d, want 1", got)
	}
	if got := m.StoreDiskHits.Value(); got != 0 {
		t.Fatalf("disk hits = %d, want 0 (no replica fits the volume)", got)
	}
	if node.Volume().Has("ds-001") {
		t.Fatal("volume holds a replica larger than its quota")
	}
}

func TestDiskModeRangeFetch(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1,
	})
	client := &http.Client{Timeout: 5 * time.Second}
	node := lc.Nodes[0]
	tok := login(t, lc)
	total := lc.Config.DatasetBytes
	off, n := int64(5000), int64(9000) // crosses a block boundary mid-block

	req, err := http.NewRequest(http.MethodGet, node.BaseURL()+"/v1/fetch/ds-001", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range fetch = %s", resp.Status)
	}
	wantCR := fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, total)
	if cr := resp.Header.Get("Content-Range"); cr != wantCR {
		t.Fatalf("Content-Range = %q, want %q", cr, wantCR)
	}
	if read, err := VerifyPayloadRange(resp.Body, "ds-001", off, n); err != nil || read != n {
		t.Fatalf("range payload: read %d, err %v", read, err)
	}
	quiesce(t, lc)
	if got := node.Metrics.RangeRequests.Value(); got != 1 {
		t.Fatalf("range requests = %d, want 1", got)
	}
	if got := node.Metrics.StoreDiskHits.Value(); got != 1 {
		t.Fatalf("disk hits = %d, want 1", got)
	}
	if got := node.Metrics.BytesServed.Value(); got != uint64(n) {
		t.Fatalf("bytes served = %d, want %d", got, n)
	}
}

func TestDiskModePullThroughSpills(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 2, Users: 1, Datasets: 2, PullThrough: true,
	})
	client := &http.Client{Timeout: 5 * time.Second}
	node2 := lc.Nodes[1]
	tok := login(t, lc)

	// ds-001's origin is node 1; fetching through node 2 proxies the
	// stream and spills it into node 2's replica volume on the way.
	fetchDataset(t, client, node2.BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if got := node2.Metrics.StoreSpills.Value(); got != 1 {
		t.Fatalf("spills on node2 = %d, want 1", got)
	}
	if got := node2.Metrics.StoreSpillFailures.Value(); got != 0 {
		t.Fatalf("spill failures on node2 = %d", got)
	}
	if !node2.Volume().Has("ds-001") {
		t.Fatal("spilled replica missing from node2's volume")
	}
	// The spilled extent is byte-exact against the deterministic payload.
	path, off, size, ok := node2.Volume().Locate("ds-001")
	if !ok {
		t.Fatal("spilled replica has no extent")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, verr := VerifyPayload(io.NewSectionReader(f, off, size), "ds-001", lc.Config.DatasetBytes)
	f.Close()
	if verr != nil {
		t.Fatal(verr)
	}
	// No reserved extent survived the spill.
	if res := node2.Volume().Reserved(); len(res) != 0 {
		t.Fatalf("reserved extents after spill = %v", res)
	}

	// Second fetch is a local disk hit on node 2 — the spill, not the
	// generator, produced the bytes (no materialization happened).
	fetchDataset(t, client, node2.BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if got := node2.Metrics.StoreDiskHits.Value(); got != 1 {
		t.Fatalf("disk hits on node2 = %d, want 1", got)
	}
	if got := node2.Metrics.StoreMaterializations.Value(); got != 0 {
		t.Fatalf("materializations on node2 = %d, want 0", got)
	}
	if got := node2.Metrics.LocalHits.Value(); got != 1 {
		t.Fatalf("local hits on node2 = %d, want 1", got)
	}
}

// TestPeerDrainKeepsConnectionAlive is the regression test for the peer
// fallback's body handling: a failed hop's response must be drained to
// EOF before close so the transport reuses the connection on the next
// attempt. A peer that 503s with a multi-KiB error body would otherwise
// cost every retry a fresh TCP handshake.
func TestPeerDrainKeepsConnectionAlive(t *testing.T) {
	var mu sync.Mutex
	var remoteAddrs []string
	errBody := make([]byte, 64<<10)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		remoteAddrs = append(remoteAddrs, r.RemoteAddr)
		mu.Unlock()
		w.Header().Set("Content-Length", fmt.Sprint(len(errBody)))
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write(errBody)
	}))
	defer peer.Close()

	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	tok := login(t, lc)

	// A dataset whose only holder is the failing fake peer: every attempt
	// of node 1's fallback loop hits it and fails.
	phantom := storage.NodeID(99)
	lc.Registry.Register(Member{Node: phantom, Site: 0, BaseURL: peer.URL, Online: true})
	if err := lc.Middleware.RegisterDataset("ds-phantom", lc.Config.Group); err != nil {
		t.Fatal(err)
	}
	if err := lc.Catalog.RegisterDataset("ds-phantom", phantom, 4096); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	req, err := http.NewRequest(http.MethodGet, lc.Nodes[0].BaseURL()+"/v1/fetch/ds-phantom", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("fetch with failing peer = %s", resp.Status)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(remoteAddrs) != fetchAttempts {
		t.Fatalf("peer saw %d attempts, want %d", len(remoteAddrs), fetchAttempts)
	}
	for i, addr := range remoteAddrs {
		if addr != remoteAddrs[0] {
			t.Fatalf("attempt %d used a new connection (%s vs %s): body not drained",
				i, addr, remoteAddrs[0])
		}
	}
}
