package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/storage"
)

// TestPinnedUploadSurvivesReplayingRestart: an upload's origin copy is
// committed pinned, and the pin is in the volume's log. After the
// origin crashes and replays its volume, pull-through traffic that
// pushes the volume past its quota evicts only unpinned entries, so
// with no other holder up the origin still serves the upload
// byte-exact.
func TestPinnedUploadSurvivesReplayingRestart(t *testing.T) {
	const quota = 256 << 10
	lc := startCluster(t, ClusterConfig{
		Nodes: 2, Users: 1, Datasets: 12, StoreQuota: quota, PullThrough: true,
		Sweep: SweeperConfig{Disabled: true},
	})
	origin := lc.Nodes[0]
	tok := login(t, lc)
	data := opaqueBytes(31, 128<<10+17)
	const id = storage.DatasetID("up-pinned")
	opts := cdnclient.TransferOptions{Endpoints: []string{origin.BaseURL()}, Token: string(tok), Stripes: 2}
	man, err := cdnclient.Upload(context.Background(), opts, id, lc.Config.Group,
		bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}

	origin.Crash()
	if err := origin.Start(); err != nil {
		t.Fatal(err)
	}
	if !origin.Volume().Has(id) {
		t.Fatal("replay lost the committed upload")
	}

	// Node 2 owns the even-numbered seeded datasets: fetched through
	// the origin, each spills there, together far past the quota.
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 1; i < len(lc.DatasetIDs); i += 2 {
		fetchDataset(t, client, origin.BaseURL(), tok, string(lc.DatasetIDs[i]), lc.Config.DatasetBytes)
	}
	quiesce(t, lc)
	if st := origin.Volume().Stats(); st.Evictions == 0 || st.UsedBytes > quota {
		t.Fatalf("pull-through never pressed the quota: %+v", st)
	}

	for _, n := range lc.Nodes[1:] {
		n.Crash()
	}
	opts.Endpoints = []string{origin.BaseURL()} // the restart took a new port
	got := make([]byte, len(data))
	if _, err := cdnclient.Download(context.Background(), opts, man, &writerAt{b: got}); err != nil {
		t.Fatalf("the pinned upload is gone after replay and quota pressure: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the pinned upload diverges after replay and quota pressure")
	}
}

// TestCrashMidBodyThenRestart: Crash cuts a whole fetch of a segmented
// dataset while the client is still reading, and returns only once the
// handler has returned — so the volume it closes has no reader and no
// reserved extent. The restarted node replays that volume and serves
// the dataset byte-exact.
func TestCrashMidBodyThenRestart(t *testing.T) {
	// 16 MiB: far more than the loopback socket buffers hold, so the
	// handler is still writing when the client stops reading.
	const total = 256*segTestSize + segTestTail
	lc := startCluster(t, ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: total,
		SegmentSize: segTestSize, SegmentThreshold: segTestSize,
		Sweep: SweeperConfig{Disabled: true},
	})
	node := lc.Nodes[0]
	tok := login(t, lc)
	client := &http.Client{Timeout: 10 * time.Second}
	req, err := http.NewRequest(http.MethodGet, node.BaseURL()+"/v1/fetch/ds-001", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, segTestSize)); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if node.Quiesce(expired) == nil {
		t.Fatal("the handler finished before the crash; the body must outsize the socket buffers")
	}

	before := node.Volume()
	node.Crash()
	if got := node.Metrics.FetchLatency.Count(); got != 1 {
		t.Fatalf("Crash returned before the cut handler did (fetch latencies observed: %d)", got)
	}
	if res := before.Reserved(); len(res) != 0 {
		t.Fatalf("reserved extents left by the cut fetch: %v", res)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err == nil {
		t.Fatal("the crash did not cut the body")
	}

	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	if node.Volume() == before {
		t.Fatal("restart kept the volume it crashed with")
	}
	fetchDataset(t, client, node.BaseURL(), tok, "ds-001", total)
	quiesce(t, lc)
	if res := node.Volume().Reserved(); len(res) != 0 {
		t.Fatalf("reserved extents after the restarted fetch: %v", res)
	}
}

// TestStartDropsWhatTheCatalogCannotPlace: a start reconciles the
// replayed volume with the catalog before it serves. An upload the new
// catalog does not know, a whole replica of an old size, and segments
// of an old segment size all leave the volume; the new sizes are then
// served byte-exact.
func TestStartDropsWhatTheCatalogCannotPlace(t *testing.T) {
	client := &http.Client{Timeout: 10 * time.Second}
	// restart shuts lc down and starts a cluster of cfg over its store,
	// shut down in turn when the subtest t ends.
	restart := func(t *testing.T, lc *LocalCluster, cfg ClusterConfig) *LocalCluster {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := lc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cfg.StoreDir = lc.StoreRoot
		return startCluster(t, cfg)
	}
	empty := func(t *testing.T, lc *LocalCluster) {
		t.Helper()
		if st := lc.Nodes[0].Volume().Stats(); st.Files != 0 || st.UsedBytes != 0 {
			t.Fatalf("the restarted volume keeps %d entries, %d bytes; want none", st.Files, st.UsedBytes)
		}
	}

	t.Run("unknown-upload", func(t *testing.T) {
		cfg := ClusterConfig{Nodes: 1, Users: 1, NoSeedDatasets: true, StoreDir: t.TempDir(),
			Sweep: SweeperConfig{Disabled: true}}
		lc := startCluster(t, cfg)
		data := opaqueBytes(5, 200<<10)
		if _, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
			Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(login(t, lc)),
		}, "up-old", lc.Config.Group, bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatal(err)
		}
		empty(t, restart(t, lc, cfg))
	})

	t.Run("resized-replica", func(t *testing.T) {
		cfg := ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: 64 << 10,
			StoreDir: t.TempDir(), Sweep: SweeperConfig{Disabled: true}}
		lc := startCluster(t, cfg)
		fetchDataset(t, client, lc.Nodes[0].BaseURL(), login(t, lc), "ds-001", cfg.DatasetBytes)
		quiesce(t, lc)
		cfg.DatasetBytes = 100000
		lc = restart(t, lc, cfg)
		empty(t, lc)
		fetchDataset(t, client, lc.Nodes[0].BaseURL(), login(t, lc), "ds-001", cfg.DatasetBytes)
		quiesce(t, lc)
		if _, _, size, ok := lc.Nodes[0].Volume().Locate("ds-001"); !ok || size != cfg.DatasetBytes {
			t.Fatalf("re-materialized replica: %d bytes (present %v), want %d", size, ok, cfg.DatasetBytes)
		}
	})

	t.Run("resegmented", func(t *testing.T) {
		cfg := ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: segTestBytes,
			SegmentSize: segTestSize, SegmentThreshold: segTestSize,
			StoreDir: t.TempDir(), Sweep: SweeperConfig{Disabled: true}}
		lc := startCluster(t, cfg)
		fetchDataset(t, client, lc.Nodes[0].BaseURL(), login(t, lc), "ds-001", segTestBytes)
		quiesce(t, lc)
		if got := lc.Nodes[0].Volume().ResidentSegments("ds-001", segTestCount); got != segTestCount {
			t.Fatalf("resident segments = %d, want %d", got, segTestCount)
		}
		cfg.SegmentSize = 2 * segTestSize
		lc = restart(t, lc, cfg)
		empty(t, lc)
		fetchDataset(t, client, lc.Nodes[0].BaseURL(), login(t, lc), "ds-001", segTestBytes)
		quiesce(t, lc)
		if got := lc.Nodes[0].Volume().ResidentSegments("ds-001", 3); got != 3 {
			t.Fatalf("resident segments at the new size = %d, want 3", got)
		}
	})
}
