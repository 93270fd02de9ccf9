package cdnclient_test

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/server"
	"scdn/internal/storage"
)

// aligned buffer implementing io.WriterAt for reassembly checks.
type bufferAt struct {
	b []byte
}

func (w *bufferAt) WriteAt(p []byte, off int64) (int, error) {
	copy(w.b[off:], p)
	return len(p), nil
}

// seededManifest is the cluster's manifest for a seeded dataset.
func seededManifest(t *testing.T, lc *server.LocalCluster, id storage.DatasetID) *ingest.Manifest {
	t.Helper()
	man, ok := lc.Manifests.Get(id)
	if !ok {
		t.Fatalf("no manifest for %s", id)
	}
	return man
}

func startCluster(t *testing.T, cfg server.ClusterConfig) (*server.LocalCluster, string) {
	t.Helper()
	lc, err := server.StartLocalCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Shutdown(ctx)
	})
	tok, err := lc.Login(lc.UserIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	return lc, string(tok)
}

func TestStripedFetchVerifiesAndReassembles(t *testing.T) {
	// Four blocks, so four block-aligned stripes.
	lc, tok := startCluster(t, server.ClusterConfig{Nodes: 3, Users: 1, Datasets: 3,
		DatasetBytes: 4 * ingest.DefaultBlockSize})
	client := &http.Client{Timeout: 10 * time.Second}
	total := lc.Config.DatasetBytes
	dst := &bufferAt{b: make([]byte, total)}

	res, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Client: client, Endpoints: lc.URLs(), Token: tok, Stripes: 4,
	}, seededManifest(t, lc, "ds-001"), dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != total {
		t.Fatalf("bytes = %d, want %d", res.Bytes, total)
	}
	if len(res.Stripes) != 4 {
		t.Fatalf("stripes = %d, want 4", len(res.Stripes))
	}
	// Stripes must cover [0, total) contiguously, and each must have hit
	// its own endpoint in rotation.
	var off int64
	for i, st := range res.Stripes {
		if st.Offset != off {
			t.Fatalf("stripe %d offset = %d, want %d", i, st.Offset, off)
		}
		if st.Endpoint != lc.URLs()[i%len(lc.URLs())] {
			t.Fatalf("stripe %d endpoint = %s", i, st.Endpoint)
		}
		if st.Err != nil || st.Bytes != st.Length {
			t.Fatalf("stripe %d = %+v", i, st)
		}
		off += st.Length
	}
	if off != total {
		t.Fatalf("stripes cover %d of %d bytes", off, total)
	}
	// The reassembled buffer is byte-exact.
	var want bytes.Buffer
	if _, err := server.WritePayload(&want, "ds-001", total); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.b, want.Bytes()) {
		t.Fatal("reassembled payload diverges from reference")
	}
}

func TestStripedFetchClipsSmallDatasets(t *testing.T) {
	// Three blocks asked for in eight stripes: a stripe never splits a
	// block, so three are planned.
	total := int64(3 * ingest.DefaultBlockSize)
	lc, tok := startCluster(t, server.ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: total,
	})
	client := &http.Client{Timeout: 10 * time.Second}
	res, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Client: client, Endpoints: lc.URLs(), Token: tok, Stripes: 8,
	}, seededManifest(t, lc, "ds-001"), cdnclient.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != total || len(res.Stripes) != 3 {
		t.Fatalf("result = %d bytes over %d stripes, want %d over 3", res.Bytes, len(res.Stripes), total)
	}
}

func TestStripedFetchDetectsWrongSize(t *testing.T) {
	lc, tok := startCluster(t, server.ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	// Claim the dataset is larger than it is, with a manifest hashed over
	// twice the payload: the stripe past the real end must fail with 416,
	// and the fetch must fail loudly.
	h := ingest.NewHasher(ingest.DefaultBlockSize)
	if _, err := server.WritePayload(h, "ds-001", lc.Config.DatasetBytes*2); err != nil {
		t.Fatal(err)
	}
	if _, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Client: client, Endpoints: lc.URLs(), Token: tok, Stripes: 4,
	}, h.Manifest("ds-001", false), cdnclient.Discard); err == nil {
		t.Fatal("oversized fetch succeeded")
	}
}

func TestStripedFetchAuthRequired(t *testing.T) {
	lc, _ := startCluster(t, server.ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	if _, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Client: client, Endpoints: lc.URLs(), Token: "bogus", Stripes: 2,
	}, seededManifest(t, lc, "ds-001"), cdnclient.Discard); err == nil {
		t.Fatal("unauthenticated striped fetch succeeded")
	}
}

func TestFetchValidation(t *testing.T) {
	h := ingest.NewHasher(ingest.DefaultBlockSize)
	_, _ = h.Write([]byte("d"))
	if _, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Client: &http.Client{},
	}, h.Manifest("d", true), cdnclient.Discard); err == nil {
		t.Fatal("no endpoints accepted")
	}
}

func TestStripedFetchDiskStore(t *testing.T) {
	lc, tok := startCluster(t, server.ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 3, DatasetBytes: 4 * ingest.DefaultBlockSize,
	})
	total := lc.Config.DatasetBytes
	dst := &bufferAt{b: make([]byte, total)}

	// Nil client: the package-default shared-transport client drives the
	// stripes; every stripe rides the disk-backed sendfile path.
	res, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Endpoints: lc.URLs(), Token: tok, Stripes: 4,
	}, seededManifest(t, lc, "ds-001"), dst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != total {
		t.Fatalf("bytes = %d, want %d", res.Bytes, total)
	}
	var want bytes.Buffer
	if _, err := server.WritePayload(&want, "ds-001", total); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.b, want.Bytes()) {
		t.Fatal("reassembled payload diverges from reference")
	}
	// At least one edge served stripes from its replica volume.
	var diskHits uint64
	for _, n := range lc.Nodes {
		diskHits += n.Metrics.StoreDiskHits.Value()
	}
	if diskHits == 0 {
		t.Fatal("no stripe was served from a disk volume")
	}
}
