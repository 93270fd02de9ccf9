package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// Segment-test geometry: one-block segments keep datasets small while
// still spanning several segments (64 KiB each, the smallest legal
// segment size).
const (
	segTestSize  = int64(ingest.DefaultBlockSize) // 64 KiB
	segTestBytes = 4*segTestSize + 1000           // 5 segments, short tail
	segTestCount = int64(5)
	segTestTail  = int64(1000)
)

// segCluster starts a cluster whose seeded datasets all take
// the segmented layout.
func segCluster(t *testing.T, cfg ClusterConfig) *LocalCluster {
	t.Helper()
	cfg.DatasetBytes = segTestBytes
	cfg.SegmentSize = segTestSize
	cfg.SegmentThreshold = segTestSize
	return startCluster(t, cfg)
}

// fadviseCounters reports whether this platform's fadvise calls are
// real (the build-tagged syscall, not the stub).
func fadviseCounters() bool {
	return runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
}

// fetchRange GETs one byte window and verifies the 206 body.
func fetchRange(t *testing.T, client *http.Client, base string, tok socialnet.Token,
	id storage.DatasetID, off, length int64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/fetch/"+string(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range fetch: %s", resp.Status)
	}
	if _, err := VerifyPayloadRange(resp.Body, id, off, length); err != nil {
		t.Fatal(err)
	}
}

// fetchSegment GETs one segment, returning the response with its body
// unread (callers verify or discard).
func fetchSegment(t *testing.T, client *http.Client, base string, tok socialnet.Token,
	id storage.DatasetID, seg int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/fetch/%s/segments/%d", base, id, seg), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tok != "" {
		req.Header.Set("Authorization", "Bearer "+string(tok))
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSegmentedWholeFetch(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	node := lc.Nodes[0]
	tok := login(t, lc)

	fetchDataset(t, client, node.BaseURL(), tok, "ds-001", segTestBytes)
	quiesce(t, lc)
	if got := node.Metrics.SegmentedServes.Value(); got != 1 {
		t.Fatalf("segmented serves = %d, want 1", got)
	}
	if node.Volume().Has("ds-001") {
		t.Fatal("segmented dataset committed a whole-file replica")
	}
	if got := node.Volume().ResidentSegments("ds-001", segTestCount); got != segTestCount {
		t.Fatalf("resident segments = %d, want %d", got, segTestCount)
	}
	if got := node.Metrics.StoreMaterializations.Value(); got != uint64(segTestCount) {
		t.Fatalf("materializations = %d, want %d (one per segment)", got, segTestCount)
	}
	if got := node.Metrics.StoreMaterializedBytes.Value(); got != uint64(segTestBytes) {
		t.Fatalf("materialized bytes = %d, want %d", got, segTestBytes)
	}

	// Warm serve: same segments, no new disk work.
	fetchDataset(t, client, node.BaseURL(), tok, "ds-001", segTestBytes)
	quiesce(t, lc)
	if got := node.Metrics.StoreMaterializations.Value(); got != uint64(segTestCount) {
		t.Fatalf("warm fetch re-materialized: %d", got)
	}
	if got := node.Metrics.SegmentedServes.Value(); got != 2 {
		t.Fatalf("segmented serves = %d, want 2", got)
	}
	if fadviseCounters() {
		// Sequential advice once per fresh descriptor (the 5 segments
		// were spilled one after another into one pack, whose pool
		// serves them all from one descriptor); DONTNEED after every
		// complete segment pass (5 per whole-object serve, 2 serves).
		if got := node.Metrics.StoreFadviseSequential.Value(); got != 1 {
			t.Errorf("fadvise sequential = %d, want 1", got)
		}
		if got := node.Metrics.StoreFadviseDontNeed.Value(); got != uint64(2*segTestCount) {
			t.Errorf("fadvise dontneed = %d, want %d", got, 2*segTestCount)
		}
	}
}

// TestRepairKeepsSegmentedLayout: a repair of a segmented seeded
// dataset announces the new holder without laying the dataset out as
// one flat entry; the holder's first fetch derives the segments, as the
// origin's does.
func TestRepairKeepsSegmentedLayout(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 1,
		Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 10 * time.Second}
	holder := lc.Nodes[1] // ds-001's origin is node 1
	tok := login(t, lc)

	if !holder.replicateLocal(context.Background(), "ds-001") {
		t.Fatal("node 2 did not adopt ds-001")
	}
	if holder.Volume().Has("ds-001") {
		t.Fatal("repair committed a whole-file replica of a segmented dataset")
	}
	if got := holder.Metrics.RepairReplicasRestored.Value(); got != 1 {
		t.Fatalf("replicas restored = %d, want 1", got)
	}
	if got := holder.Metrics.IngestRepairRegenerated.Value(); got != 1 {
		t.Fatalf("repair regenerated = %d, want 1", got)
	}

	fetchDataset(t, client, holder.BaseURL(), tok, "ds-001", segTestBytes)
	quiesce(t, lc)
	if got := holder.Metrics.SegmentedServes.Value(); got != 1 {
		t.Fatalf("segmented serves = %d, want 1", got)
	}
	if got := holder.Volume().ResidentSegments("ds-001", segTestCount); got != segTestCount {
		t.Fatalf("resident segments = %d, want %d", got, segTestCount)
	}
	if holder.Volume().Has("ds-001") || holder.Metrics.StoreSpillFailures.Value() != 0 {
		t.Fatal("the fetch laid the dataset out flat or failed a spill")
	}
}

// TestSegmentedQuotaResidency is the partial-residency contract: a
// volume whose quota holds a fraction of one dataset still serves the
// whole thing, keeps the hot tail resident, and a later ranged fetch
// re-materializes only the segments its window needs.
func TestSegmentedQuotaResidency(t *testing.T) {
	lc := segCluster(t, ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1,
		StoreQuota: 2 * segTestSize, // room for 2 of the 5 segments
	})
	client := &http.Client{Timeout: 10 * time.Second}
	node := lc.Nodes[0]
	tok := login(t, lc)
	const id = storage.DatasetID("ds-001")

	fetchDataset(t, client, node.BaseURL(), tok, string(id), segTestBytes)
	if got := node.Metrics.StoreMaterializations.Value(); got != uint64(segTestCount) {
		t.Fatalf("materializations = %d, want %d", got, segTestCount)
	}
	if got := node.Volume().ResidentSegments(id, segTestCount); got != 2 {
		t.Fatalf("resident segments = %d, want 2 (quota holds 2)", got)
	}
	// The sequential walk ends with the tail segments resident.
	for _, seg := range []int64{3, 4} {
		if !node.Volume().HasSegment(id, seg) {
			t.Fatalf("hot tail segment %d not resident", seg)
		}
	}

	// A window inside evicted segment 1 re-materializes exactly one
	// segment, not the dataset.
	before := node.Metrics.StoreMaterializations.Value()
	fetchRange(t, client, node.BaseURL(), tok, id, segTestSize+5000, 2000)
	if got := node.Metrics.StoreMaterializations.Value() - before; got != 1 {
		t.Fatalf("ranged fetch materialized %d segments, want 1", got)
	}
	// Warm repeat of the same window: zero new disk work.
	before = node.Metrics.StoreMaterializations.Value()
	fetchRange(t, client, node.BaseURL(), tok, id, segTestSize+5000, 2000)
	if got := node.Metrics.StoreMaterializations.Value() - before; got != 0 {
		t.Fatalf("warm ranged fetch materialized %d segments", got)
	}
	// A window spanning the 2-3 boundary needs at most those 2 segments.
	before = node.Metrics.StoreMaterializations.Value()
	fetchRange(t, client, node.BaseURL(), tok, id, 3*segTestSize-1000, 2000)
	if got := node.Metrics.StoreMaterializations.Value() - before; got > 2 {
		t.Fatalf("boundary range materialized %d segments, want <= 2", got)
	}

	// Concurrent mixed readers under the same starved quota: every
	// stream must still verify end to end while segments are being
	// materialized and evicted underneath them (exercised under -race).
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			off := (int64(g%5)*7919 + 13) % (segTestBytes - 3000)
			req, err := http.NewRequest(http.MethodGet, node.BaseURL()+"/v1/fetch/"+string(id), nil)
			if err != nil {
				errs <- err
				return
			}
			req.Header.Set("Authorization", "Bearer "+string(tok))
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+2999))
			resp, err := client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusPartialContent {
				io.Copy(io.Discard, resp.Body)
				errs <- fmt.Errorf("goroutine %d: %s", g, resp.Status)
				return
			}
			if _, err := VerifyPayloadRange(resp.Body, id, off, 3000); err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := node.Volume().ResidentSegments(id, segTestCount); got > 2 {
		t.Fatalf("resident segments = %d, quota allows 2", got)
	}
}

func TestSegmentEndpoint(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	node := lc.Nodes[0]
	tok := login(t, lc)
	const id = storage.DatasetID("ds-001")

	// Every segment serves as a plain 200 with its exact extent.
	for seg := int64(0); seg < segTestCount; seg++ {
		extent := storage.SegmentExtent(segTestBytes, segTestSize, seg)
		resp := fetchSegment(t, client, node.BaseURL(), tok, id, seg)
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("segment %d: %s", seg, resp.Status)
		}
		if got := resp.ContentLength; got != extent {
			t.Fatalf("segment %d Content-Length = %d, want %d", seg, got, extent)
		}
		if _, err := VerifyPayloadRange(resp.Body, id, seg*segTestSize, extent); err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		resp.Body.Close()
	}
	if got := node.Metrics.SegmentFetchRequests.Value(); got != uint64(segTestCount) {
		t.Fatalf("segment fetch requests = %d, want %d", got, segTestCount)
	}
	if got := node.Metrics.SegmentFetchFailures.Value(); got != 0 {
		t.Fatalf("segment fetch failures = %d", got)
	}

	// Out-of-range, negative, and non-numeric ordinals are 404s.
	for _, bad := range []string{"5", "-1", "abc", "01x"} {
		req, _ := http.NewRequest(http.MethodGet,
			node.BaseURL()+"/v1/fetch/ds-001/segments/"+bad, nil)
		req.Header.Set("Authorization", "Bearer "+string(tok))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("segment %q: %s, want 404", bad, resp.Status)
		}
	}
	// Missing auth is refused before any byte of the segment.
	resp := fetchSegment(t, client, node.BaseURL(), "", id, 0)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated segment fetch: %s, want 403", resp.Status)
	}
}

func TestSegmentEndpointUnsegmentedDataset(t *testing.T) {
	// Default threshold (16 MiB) far above the 64 KiB dataset: the
	// segment surface does not exist for small datasets.
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	resp := fetchSegment(t, client, lc.Nodes[0].BaseURL(), tok, "ds-001", 0)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("segment fetch of unsegmented dataset: %s, want 404", resp.Status)
	}
}

// TestSegmentPeerPull: an edge that holds nothing of a dataset proxies
// the requested segment from a holder and adopts exactly that segment —
// no whole-dataset transfer, no catalog replica record for a piece.
func TestSegmentPeerPull(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, PullThrough: true,
		Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 10 * time.Second}
	owner, other := lc.Nodes[0], lc.Nodes[1] // ds-001's origin is node 1
	tok := login(t, lc)
	const id = storage.DatasetID("ds-001")
	const seg = int64(2)

	resp := fetchSegment(t, client, other.BaseURL(), tok, id, seg)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("proxied segment: %s", resp.Status)
	}
	// A proxied response names the holder that produced the bytes, the
	// same as a proxied whole fetch.
	if src := resp.Header.Get("X-SCDN-Source"); src != "1" {
		t.Fatalf("proxied segment source = %q, want the holder 1", src)
	}
	if _, err := VerifyPayloadRange(resp.Body, id, seg*segTestSize, segTestSize); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	quiesce(t, lc)

	if got := owner.Metrics.PeerSegmentFetchRequests.Value(); got != 1 {
		t.Fatalf("owner peer segment requests = %d, want 1", got)
	}
	if got := other.Metrics.SegmentPulls.Value(); got != 1 {
		t.Fatalf("segment pulls = %d, want 1", got)
	}
	if !other.Volume().HasSegment(id, seg) {
		t.Fatal("pulled segment not adopted into the volume")
	}
	if other.Volume().ResidentSegments(id, segTestCount) != 1 {
		t.Fatal("peer pull adopted more than the requested segment")
	}
	// Holding one piece must not mint a replica record: the catalog
	// would route whole-object fetches to an edge that cannot serve them
	// locally in full.
	if lc.Catalog.Holds(id, 2) {
		t.Fatal("segment adoption minted a whole-dataset replica record")
	}

	// Second fetch of the same segment serves locally from the adopted
	// file — no second peer hop.
	resp = fetchSegment(t, client, other.BaseURL(), tok, id, seg)
	if _, err := VerifyPayloadRange(resp.Body, id, seg*segTestSize, segTestSize); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	quiesce(t, lc)
	if got := owner.Metrics.PeerSegmentFetchRequests.Value(); got != 1 {
		t.Fatalf("adopted segment re-proxied: owner saw %d peer requests", got)
	}
	if got := other.Metrics.SegmentPulls.Value(); got != 1 {
		t.Fatalf("segment pulls = %d after warm serve, want 1", got)
	}
}

// TestSegmentedPullThroughWholeFetch: a whole-object fetch proxied
// through a non-holder adopts the dataset segment by segment, each one
// verified against the manifest window as it completes, and the edge
// then serves the dataset locally via the segmented path.
func TestSegmentedPullThroughWholeFetch(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, PullThrough: true,
		Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 10 * time.Second}
	other := lc.Nodes[1]
	tok := login(t, lc)
	const id = storage.DatasetID("ds-001")

	fetchDataset(t, client, other.BaseURL(), tok, string(id), segTestBytes)
	quiesce(t, lc)
	if got := other.Metrics.SegmentPulls.Value(); got != uint64(segTestCount) {
		t.Fatalf("segment pulls = %d, want %d (every segment adopted mid-stream)", got, segTestCount)
	}
	if got := other.Volume().ResidentSegments(id, segTestCount); got != segTestCount {
		t.Fatalf("resident segments after pull-through = %d, want %d", got, segTestCount)
	}
	if other.Volume().Has(id) {
		t.Fatal("segmented pull-through committed a whole-file replica")
	}
	// Regenerable dataset: the adopted edge becomes a real replica
	// holder (it can always re-derive evicted segments).
	if !lc.Catalog.Holds(id, 2) {
		t.Fatal("pull-through of a regenerable segmented dataset did not register a replica")
	}

	// Warm: the second fetch never leaves the edge.
	origins := other.Metrics.OriginFetches.Value()
	fetchDataset(t, client, other.BaseURL(), tok, string(id), segTestBytes)
	quiesce(t, lc)
	if got := other.Metrics.SegmentedServes.Value(); got != 1 {
		t.Fatalf("segmented serves = %d, want 1 (warm serve is local)", got)
	}
	if got := other.Metrics.OriginFetches.Value(); got != origins {
		t.Fatal("warm fetch went back to the origin")
	}
}

func TestResolveSegmentIndex(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	var res ResolveResponse
	status := doJSON(t, client, http.MethodPost, lc.Nodes[0].BaseURL()+"/v1/resolve", tok,
		ResolveRequest{Dataset: "ds-001"}, &res)
	if status != http.StatusOK {
		t.Fatalf("resolve: %d", status)
	}
	if res.SegmentSize != segTestSize || res.Segments != segTestCount {
		t.Fatalf("resolve segment geometry = (%d, %d), want (%d, %d)",
			res.SegmentSize, res.Segments, segTestSize, segTestCount)
	}
}

func TestResolveSmallDatasetHasNoSegmentIndex(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	var res ResolveResponse
	doJSON(t, client, http.MethodPost, lc.Nodes[0].BaseURL()+"/v1/resolve", tok,
		ResolveRequest{Dataset: "ds-001"}, &res)
	if res.SegmentSize != 0 || res.Segments != 0 {
		t.Fatalf("small dataset grew a segment index: %+v", res)
	}
}

// TestOpaqueSegmentWindow: opaque uploads commit as one file (their
// segments could never be re-derived), and the segment endpoint serves
// windows out of that file.
func TestOpaqueSegmentWindow(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 1, Users: 1, NoSeedDatasets: true,
		SegmentSize: segTestSize, SegmentThreshold: segTestSize,
		Sweep: SweeperConfig{Disabled: true},
	})
	client := &http.Client{Timeout: 10 * time.Second}
	node := lc.Nodes[0]
	tok := login(t, lc)
	data := opaqueBytes(7, int(segTestBytes))
	const id = storage.DatasetID("up-seg")

	if _, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{node.BaseURL()}, Token: string(tok),
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !node.Volume().Has(id) {
		t.Fatal("opaque upload did not commit a whole-file replica")
	}

	// Whole fetch stays on the whole-file path.
	resp := fetchSegment(t, client, node.BaseURL(), tok, id, 1)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("opaque segment window: %s", resp.Status)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := data[segTestSize : 2*segTestSize]
	if !bytes.Equal(got, want) {
		t.Fatalf("opaque segment window served %d wrong bytes", len(got))
	}
	if got := node.Metrics.SegmentedServes.Value(); got != 0 {
		t.Fatalf("opaque dataset took the segmented serve path (%d)", got)
	}
	// The short tail window too.
	resp = fetchSegment(t, client, node.BaseURL(), tok, id, segTestCount-1)
	got, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("tail window: %s err=%v", resp.Status, err)
	}
	if !bytes.Equal(got, data[4*segTestSize:]) {
		t.Fatal("opaque tail window bytes wrong")
	}
}

// TestAdoptedSegmentServesFetchWindow: a non-holder that adopted one
// segment answers a whole-object Range request inside that segment from
// its own volume — no peer hop, and still no replica record.
func TestAdoptedSegmentServesFetchWindow(t *testing.T) {
	lc := segCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, PullThrough: true,
		Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 10 * time.Second}
	owner, other := lc.Nodes[0], lc.Nodes[1] // ds-001's origin is node 1
	tok := login(t, lc)
	const id = storage.DatasetID("ds-001")
	const seg = int64(2)

	resp := fetchSegment(t, client, other.BaseURL(), tok, id, seg)
	_, err := VerifyPayloadRange(resp.Body, id, seg*segTestSize, segTestSize)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, lc)
	if !other.Volume().HasSegment(id, seg) {
		t.Fatal("pulled segment not adopted into the volume")
	}

	hops := owner.Metrics.PeerFetchRequests.Value()
	off := seg*segTestSize + 100
	req, err := http.NewRequest(http.MethodGet, other.BaseURL()+"/v1/fetch/"+string(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+999))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("window inside the adopted segment: %s", resp.Status)
	}
	if src := resp.Header.Get("X-SCDN-Source"); src != "2" {
		t.Fatalf("served by %q, want this edge (2)", src)
	}
	if _, err := VerifyPayloadRange(resp.Body, id, off, 1000); err != nil {
		t.Fatal(err)
	}
	quiesce(t, lc)
	if got := owner.Metrics.PeerFetchRequests.Value(); got != hops {
		t.Fatalf("owner saw %d peer fetches for a resident window", got-hops)
	}
	if lc.Catalog.Holds(id, 2) {
		t.Fatal("a local window serve minted a replica record")
	}
}

// TestSegmentRouteWithdrawsLostOpaqueClaim: a catalogued holder of an
// opaque dataset whose volume lost the bytes answers a segment from a
// surviving holder and withdraws its stale claim, the same as the
// whole-object route.
func TestSegmentRouteWithdrawsLostOpaqueClaim(t *testing.T) {
	lc := startCluster(t, ClusterConfig{
		Nodes: 2, Users: 1, NoSeedDatasets: true,
		SegmentSize: segTestSize, SegmentThreshold: segTestSize,
		Sweep: SweeperConfig{Disabled: true},
	})
	client := &http.Client{Timeout: 10 * time.Second}
	holder := lc.Nodes[1]
	tok := login(t, lc)
	data := opaqueBytes(11, int(segTestBytes))
	const id = storage.DatasetID("up-lost")

	if _, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok),
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !holder.replicateLocal(context.Background(), id) {
		t.Fatalf("node 2 did not adopt %s", id)
	}
	holder.Volume().Remove(id)

	resp := fetchSegment(t, client, holder.BaseURL(), tok, id, 1)
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("segment of a lost replica: %s err=%v", resp.Status, err)
	}
	if !bytes.Equal(got, data[segTestSize:2*segTestSize]) {
		t.Fatalf("segment of a lost replica served %d wrong bytes", len(got))
	}
	quiesce(t, lc)
	if lc.Catalog.Holds(id, 2) {
		t.Fatal("the lost claim stayed in the catalog")
	}
}

// TestNonDerivingSegmentWalk: only a source that may derive bytes (a
// holder of a regenerable dataset) re-materializes an evicted segment
// mid-walk; any other walk fails there rather than write generator
// bytes in place of, say, an opaque upload's.
func TestNonDerivingSegmentWalk(t *testing.T) {
	vol, err := storage.NewDiskVolume(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	n := benchNode(vol)
	n.cfg.SegmentSize, n.cfg.SegmentThreshold = segTestSize, segTestSize
	const id = storage.DatasetID("walk")
	src := fetchSource{id: id, total: segTestBytes, piece: segTestSize, segs: true, idx: -1}
	if _, err := n.copyRange(io.Discard, new(fetchScratch), &src, 0, segTestSize); err == nil {
		t.Fatal("a non-deriving walk served an absent segment")
	}
	if vol.HasSegment(id, 0) || n.Metrics.StoreMaterializations.Value() != 0 {
		t.Fatal("a non-deriving walk materialized a segment")
	}
	src.derive = true
	defer n.releasePiece(&src)
	var buf bytes.Buffer
	if m, err := n.copyRange(&buf, new(fetchScratch), &src, 0, segTestSize); err != nil || m != segTestSize {
		t.Fatalf("deriving walk = %d bytes, %v", m, err)
	}
	if _, err := VerifyPayloadRange(&buf, id, 0, segTestSize); err != nil || !vol.HasSegment(id, 0) {
		t.Fatalf("deriving walk: resident=%v, %v", vol.HasSegment(id, 0), err)
	}
}

// TestSegmentEvictedAfterHead: a non-holder serves a window inside one
// resident segment only, and the piece it opened before writing its
// head stays readable through the walk, so evicting that segment
// between localSource and copyRange cannot cut the body short.
func TestSegmentEvictedAfterHead(t *testing.T) {
	vol, err := storage.NewDiskVolume(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	n := benchNode(vol)
	n.cfg.SegmentSize, n.cfg.SegmentThreshold = segTestSize, segTestSize
	const id = storage.DatasetID("evict")
	if !n.materialize(storage.SegmentKey(id, 1), id, segTestSize, segTestSize) {
		t.Fatal("segment 1 did not materialize")
	}
	off, length := segTestSize+100, int64(4096)
	src, ok := n.localSource(id, segTestBytes, off, off+length, false)
	if !ok {
		t.Fatal("a resident segment was not a local source")
	}
	defer n.releasePiece(&src)
	vol.Remove(storage.SegmentKey(id, 1))
	var buf bytes.Buffer
	if m, err := n.copyRange(&buf, new(fetchScratch), &src, off, length); err != nil || m != length {
		t.Fatalf("serve after eviction = %d bytes, %v", m, err)
	}
	if _, err := VerifyPayloadRange(&buf, id, off, length); err != nil {
		t.Fatal(err)
	}
}
