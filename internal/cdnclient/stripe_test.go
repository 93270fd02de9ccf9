package cdnclient_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"scdn/internal/cdnclient"
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

// payloadVerifier adapts the serving plane's deterministic payload
// verifier to the striped fetch's injected-verifier contract.
func payloadVerifier(id storage.DatasetID) func(off, length int64) (io.WriteCloser, error) {
	return func(off, length int64) (io.WriteCloser, error) {
		return server.NewRangeVerifier(id, off, length), nil
	}
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
	lc, tok := startCluster(t, server.ClusterConfig{Nodes: 3, Users: 1, Datasets: 3})
	client := &http.Client{Timeout: 10 * time.Second}
	total := lc.Config.DatasetBytes
	dst := &bufferAt{b: make([]byte, total)}

	res, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{
		Client: client, Endpoints: lc.URLs(), Token: tok,
		Stripes: 4, NewVerifier: payloadVerifier("ds-001"), Dst: dst,
	}, "ds-001", total)
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
	lc, tok := startCluster(t, server.ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: 3,
	})
	client := &http.Client{Timeout: 10 * time.Second}
	res, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{
		Client: client, Endpoints: lc.URLs(), Token: tok,
		Stripes: 8, NewVerifier: payloadVerifier("ds-001"),
	}, "ds-001", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 3 || len(res.Stripes) != 3 {
		t.Fatalf("result = %d bytes over %d stripes, want 3 over 3", res.Bytes, len(res.Stripes))
	}
}

func TestStripedFetchDetectsWrongSize(t *testing.T) {
	lc, tok := startCluster(t, server.ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	// Claim the dataset is larger than it is: the stripe past the real
	// end must fail with 416, and the fetch must fail loudly.
	if _, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{
		Client: client, Endpoints: lc.URLs(), Token: tok,
		Stripes: 4, NewVerifier: payloadVerifier("ds-001"),
	}, "ds-001", lc.Config.DatasetBytes*2); err == nil {
		t.Fatal("oversized fetch succeeded")
	}
}

func TestStripedFetchAuthRequired(t *testing.T) {
	lc, _ := startCluster(t, server.ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 10 * time.Second}
	if _, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{
		Client: client, Endpoints: lc.URLs(), Token: "bogus",
		Stripes: 2, NewVerifier: payloadVerifier("ds-001"),
	}, "ds-001", lc.Config.DatasetBytes); err == nil {
		t.Fatal("unauthenticated striped fetch succeeded")
	}
}

func TestFetchValidation(t *testing.T) {
	client := &http.Client{}
	if _, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{Client: client}, "d", 1); err == nil {
		t.Fatal("no endpoints accepted")
	}
	if _, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{
		Client: client, Endpoints: []string{"x"},
	}, "d", 0); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestStripedFetchDiskStore(t *testing.T) {
	lc, tok := startCluster(t, server.ClusterConfig{
		Nodes: 3, Users: 1, Datasets: 3,
	})
	total := lc.Config.DatasetBytes
	dst := &bufferAt{b: make([]byte, total)}

	// Nil client: the package-default shared-transport client drives the
	// stripes; every stripe rides the disk-backed sendfile path.
	res, err := cdnclient.FetchStriped(context.Background(), cdnclient.StripeOptions{
		Endpoints: lc.URLs(), Token: tok,
		Stripes: 4, NewVerifier: payloadVerifier("ds-001"), Dst: dst,
	}, "ds-001", total)
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
