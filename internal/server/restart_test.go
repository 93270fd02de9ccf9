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
