package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sync"
	"testing"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/storage"
)

// opaqueBytes generates seeded pseudorandom content — deliberately NOT
// the deterministic payload chain, so nothing in the system can
// regenerate it.
func opaqueBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// ingestCluster starts a cluster with no seeded datasets:
// every dataset must enter through an upload.
func ingestCluster(t *testing.T, cfg ClusterConfig) *LocalCluster {
	t.Helper()
	cfg.NoSeedDatasets = true
	return startCluster(t, cfg)
}

// rawPut issues one PUT /v1/datasets request with explicit headers.
func rawPut(t *testing.T, client *http.Client, base string, id string, tok string,
	body io.Reader, length int64, hdrs map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/datasets/"+url.PathEscape(id), body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = length
	if tok != "" {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// digestOf is the X-SCDN-Digest value for data: the dataset digest
// (roll-up of the 64 KiB block digests) in lowercase hex.
func digestOf(data []byte) string {
	h := ingest.NewHasher(ingest.DefaultBlockSize)
	_, _ = h.Write(data)
	return h.Manifest("digest-of", true).DigestHex()
}

func TestUploadRoundTrip(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{Nodes: 3, Users: 2, Sweep: SweeperConfig{Disabled: true}})
	tok := login(t, lc)
	data := opaqueBytes(42, 256<<10+17)
	id := storage.DatasetID("up-001")

	man, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok), Stripes: 4,
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !man.Opaque || man.Size != int64(len(data)) {
		t.Fatalf("manifest = %+v", man)
	}
	if _, ok := lc.Manifests.Get(id); !ok {
		t.Fatal("manifest not recorded in shared store")
	}
	if got, err := lc.Catalog.DatasetBytes(id); err != nil || got != int64(len(data)) {
		t.Fatalf("catalog bytes = %d, %v", got, err)
	}
	if !lc.Nodes[0].Volume().Has(id) {
		t.Fatal("origin volume does not hold the uploaded bytes")
	}
	if res := lc.Nodes[0].Volume().Reserved(); len(res) != 0 {
		t.Fatalf("reserved extents left after upload: %v", res)
	}
	if got := lc.Nodes[0].Metrics.IngestUploads.Value(); got != 1 {
		t.Fatalf("IngestUploads = %d, want 1", got)
	}

	// Striped, manifest-verified download through any edge reassembles
	// the exact bytes (non-holders proxy from the origin).
	dst := make([]byte, len(data))
	res, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Endpoints: lc.URLs(), Token: string(tok), Stripes: 3,
	}, man, &writerAt{b: dst})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(data)) || !bytes.Equal(dst, data) {
		t.Fatal("downloaded bytes diverge from uploaded bytes")
	}

	// Re-publishing the same ID is a conflict, even with identical bytes.
	if _, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok), Stripes: 1,
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("duplicate upload accepted")
	}
}

type writerAt struct {
	mu sync.Mutex
	b  []byte
}

func (w *writerAt) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	copy(w.b[off:], p)
	return len(p), nil
}

func TestUploadDigestMismatchLeavesNoState(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{Nodes: 1, Users: 1, Sweep: SweeperConfig{Disabled: true}})
	tok := login(t, lc)
	node := lc.Nodes[0]
	data := opaqueBytes(7, 3*ingest.DefaultBlockSize+100)
	plain := sha256.Sum256(data)
	declared := []struct{ name, digest string }{
		{"digest of other bytes", digestOf([]byte("not those bytes"))},
		// One digest format: the plain SHA-256 of the right bytes is
		// not the roll-up of their block digests.
		{"plain sha256 of these bytes", hex.EncodeToString(plain[:])},
	}
	for i, tc := range declared {
		id := storage.DatasetID(fmt.Sprintf("up-bad-%d", i))
		resp := rawPut(t, http.DefaultClient, node.BaseURL(), string(id), string(tok),
			bytes.NewReader(data), int64(len(data)), map[string]string{
				ingest.DigestHeader: tc.digest,
				ingest.GroupHeader:  lc.Config.Group,
			})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422", tc.name, resp.StatusCode)
		}
		if got := node.Metrics.IngestDigestRejects.Value(); got != uint64(i+1) {
			t.Fatalf("%s: digest rejects = %d, want %d", tc.name, got, i+1)
		}
		// No partial state anywhere: no catalog entry, no manifest, no
		// replica, no reserved extent, no lingering session.
		if _, err := lc.Catalog.DatasetBytes(id); err == nil {
			t.Fatalf("%s: rejected upload reached the catalog", tc.name)
		}
		if _, ok := lc.Manifests.Get(id); ok {
			t.Fatalf("%s: rejected upload left a manifest", tc.name)
		}
		if node.Volume().Has(id) {
			t.Fatalf("%s: rejected upload left a committed replica", tc.name)
		}
		if res := node.Volume().Reserved(); len(res) != 0 {
			t.Fatalf("%s: rejected upload left reserved extents: %v", tc.name, res)
		}
		node.upMu.Lock()
		sessions := len(node.uploads)
		node.upMu.Unlock()
		if sessions != 0 {
			t.Fatalf("%s: %d upload sessions linger", tc.name, sessions)
		}
	}
}

// brokenReader fails after feeding part of the stream — a client that
// crashes mid-upload.
type brokenReader struct {
	data []byte
	off  int
}

func (r *brokenReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("client crashed mid-stream")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestUploadCrashMidStreamLeavesNoState(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{Nodes: 1, Users: 1, Sweep: SweeperConfig{Disabled: true}})
	tok := login(t, lc)
	node := lc.Nodes[0]
	data := opaqueBytes(9, 64<<10)
	id := storage.DatasetID("up-crash")

	req, err := http.NewRequest(http.MethodPut, node.BaseURL()+"/v1/datasets/"+string(id),
		&brokenReader{data: data[:1000]})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(data))
	req.Header.Set("Authorization", "Bearer "+string(tok))
	req.Header.Set(ingest.DigestHeader, digestOf(data))
	req.Header.Set(ingest.GroupHeader, lc.Config.Group)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The server may have answered 400 before the transport noticed
		// the body error; either way the upload failed.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Fatalf("crashed upload answered %d", resp.StatusCode)
		}
	}
	// The handler's failure path runs as the request unwinds; poll
	// briefly for the cleanup to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		node.upMu.Lock()
		sessions := len(node.uploads)
		node.upMu.Unlock()
		res := node.Volume().Reserved()
		if sessions == 0 && len(res) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crashed upload left sessions=%d reserved=%v", sessions, res)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := lc.Catalog.DatasetBytes(id); err == nil {
		t.Fatal("crashed upload reached the catalog")
	}
	if node.Volume().Has(id) {
		t.Fatal("crashed upload left a committed replica")
	}
}

func TestUploadValidation(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{Nodes: 1, Users: 1, Sweep: SweeperConfig{Disabled: true}})
	tok := login(t, lc)
	base := lc.Nodes[0].BaseURL()
	data := opaqueBytes(11, 4096)
	good := map[string]string{
		ingest.DigestHeader: digestOf(data),
		ingest.GroupHeader:  lc.Config.Group,
	}
	cases := []struct {
		name string
		tok  string
		hdrs map[string]string
		want int
	}{
		{"bad token", "bogus", good, http.StatusUnauthorized},
		{"missing digest", string(tok), map[string]string{ingest.GroupHeader: lc.Config.Group}, http.StatusBadRequest},
		{"malformed digest", string(tok), map[string]string{
			ingest.DigestHeader: "zz", ingest.GroupHeader: lc.Config.Group}, http.StatusBadRequest},
		{"missing group", string(tok), map[string]string{ingest.DigestHeader: digestOf(data)}, http.StatusBadRequest},
		{"non-member group", string(tok), map[string]string{
			ingest.DigestHeader: digestOf(data), ingest.GroupHeader: "not-my-group"}, http.StatusForbidden},
	}
	for _, tc := range cases {
		resp := rawPut(t, http.DefaultClient, base, "up-v-"+tc.name, tc.tok,
			bytes.NewReader(data), int64(len(data)), tc.hdrs)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Seeded datasets cannot be overwritten.
	seeded := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1,
		Sweep: SweeperConfig{Disabled: true}})
	stok := login(t, seeded)
	resp := rawPut(t, http.DefaultClient, seeded.Nodes[0].BaseURL(), "ds-001", string(stok),
		bytes.NewReader(data), int64(len(data)), good)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("seeded overwrite: status = %d, want 409", resp.StatusCode)
	}
}

func TestUploadSessionExpiry(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{Nodes: 1, Users: 1, Sweep: SweeperConfig{Disabled: true}})
	tok := login(t, lc)
	node := lc.Nodes[0]
	data := opaqueBytes(13, 128<<10)
	id := storage.DatasetID("up-idle")

	// First stripe of two arrives; the second never does.
	resp := rawPut(t, http.DefaultClient, node.BaseURL(), string(id), string(tok),
		bytes.NewReader(data[:64<<10]), 64<<10, map[string]string{
			ingest.DigestHeader: digestOf(data),
			ingest.GroupHeader:  lc.Config.Group,
			"Content-Range":     fmt.Sprintf("bytes 0-%d/%d", 64<<10-1, len(data)),
		})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stripe status = %d, want 204", resp.StatusCode)
	}
	node.upMu.Lock()
	sess := node.uploads[id]
	node.upMu.Unlock()
	if sess == nil {
		t.Fatal("no session after first stripe")
	}
	sess.mu.Lock()
	sess.touched = time.Now().Add(-time.Hour)
	sess.mu.Unlock()
	node.expireUploads()
	node.upMu.Lock()
	_, still := node.uploads[id]
	node.upMu.Unlock()
	if still {
		t.Fatal("idle session survived expiry")
	}
	if res := node.Volume().Reserved(); len(res) != 0 {
		t.Fatalf("expired session left reserved extents: %v", res)
	}
	if node.Metrics.IngestUploadExpired.Value() != 1 {
		t.Fatal("expiry not counted")
	}
}

// TestOpaqueRepairByCopy: the sweeper restores an opaque dataset's
// replication floor by copying verified bytes from surviving holders —
// never by regeneration — and the copies are byte-identical.
func TestOpaqueRepairByCopy(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{
		Nodes: 3, Users: 1,
		Sweep: SweeperConfig{Interval: 50 * time.Millisecond, ReplicationTarget: 2},
	})
	tok := login(t, lc)
	data := opaqueBytes(99, 192<<10+5)
	id := storage.DatasetID("up-repair")

	man, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok), Stripes: 2,
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}

	// The sweeper must bring the dataset to two live holders by byte
	// transfer (the origin plus one copy).
	waitFor(t, 10*time.Second, "second holder via byte copy", func() bool {
		reps, err := lc.Catalog.Replicas(id)
		return err == nil && len(reps) >= 2
	})
	var copies, regen uint64
	for _, n := range lc.Nodes {
		copies += n.Metrics.IngestRepairCopies.Value()
		regen += n.Metrics.IngestRepairRegenerated.Value()
	}
	if copies == 0 {
		t.Fatal("no repair was satisfied by byte copy")
	}
	if regen != 0 {
		t.Fatalf("%d opaque repairs regenerated bytes", regen)
	}

	// Every holder's on-disk copy is byte-identical to the upload.
	reps, err := lc.Catalog.Replicas(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		node := lc.Nodes[rep.Node-1]
		f, size, ok := node.Volume().Open(id)
		if !ok {
			t.Fatalf("holder %d has no volume file", rep.Node)
		}
		var got []byte
		pf, rerr := f.FileAt(0)
		if rerr == nil {
			got, rerr = io.ReadAll(io.LimitReader(pf, size))
		}
		node.Volume().Release(id, f)
		if rerr != nil || size != int64(len(data)) || !bytes.Equal(got, data) {
			t.Fatalf("holder %d copy diverges (size %d, err %v)", rep.Node, size, rerr)
		}
	}

	// Kill the origin: the floor must be restored from the surviving
	// copy, still without regeneration.
	lc.Nodes[0].Crash()
	waitFor(t, 15*time.Second, "floor restored after origin crash", func() bool {
		reps, err := lc.Catalog.Replicas(id)
		if err != nil {
			return false
		}
		live := 0
		for _, rep := range reps {
			if lc.Registry.Online(rep.Node) && lc.Nodes[rep.Node-1].Running() {
				live++
			}
		}
		return live >= 2
	})
	regen = 0
	for _, n := range lc.Nodes {
		regen += n.Metrics.IngestRepairRegenerated.Value()
	}
	if regen != 0 {
		t.Fatalf("%d opaque repairs regenerated bytes after crash", regen)
	}
	// And the dataset still downloads byte-exact from the survivors.
	var eps []string
	for _, n := range lc.Nodes[1:] {
		eps = append(eps, n.BaseURL())
	}
	dst := make([]byte, len(data))
	if _, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Endpoints: eps, Token: string(tok), Stripes: 2,
	}, man, &writerAt{b: dst}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("post-churn download diverges from uploaded bytes")
	}
}

// TestCorruptReplicaNeverAdopted: a holder serving corrupted bytes must
// not spread them — neither pull-through caching nor repair-by-copy
// adopts a replica whose stream disagrees with the manifest.
func TestCorruptReplicaNeverAdopted(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{
		Nodes: 2, Users: 1, PullThrough: true, Sweep: SweeperConfig{Disabled: true},
	})
	tok := login(t, lc)
	data := opaqueBytes(1234, 96<<10)
	id := storage.DatasetID("up-corrupt")

	man, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok), Stripes: 1,
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the origin's on-disk copy (bit rot).
	path, off, size, ok := lc.Nodes[0].Volume().Locate(id)
	if !ok {
		t.Fatal("origin holds no extent of the upload")
	}
	pf, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := pf.ReadAt(b, off+size/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	_, werr := pf.WriteAt(b, off+size/2)
	pf.Close()
	if werr != nil {
		t.Fatal(werr)
	}

	// A client fetch through node 2 proxies the corrupt stream; the
	// client's own verifier is its protection. Node 2, though, must
	// refuse to adopt what it spilled.
	req, err := http.NewRequest(http.MethodGet,
		lc.Nodes[1].BaseURL()+"/v1/fetch/"+string(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	quiesce(t, lc)
	if bytes.Equal(got, data) {
		t.Fatal("corruption did not propagate through the proxy — test setup broken")
	}
	if lc.Nodes[1].Volume().Has(id) {
		t.Fatal("pull-through adopted a corrupt replica")
	}
	reps, err := lc.Catalog.Replicas(id)
	if err != nil || len(reps) != 1 {
		t.Fatalf("corrupt pull minted a replica record: %v, %v", reps, err)
	}
	if lc.Nodes[1].Metrics.IngestDigestRejects.Value() == 0 {
		t.Fatal("corrupt pull-through not counted as digest reject")
	}

	// Repair-by-copy from the corrupt holder must refuse too.
	if ok := lc.Nodes[1].replicateByCopy(context.Background(), id, man); ok {
		t.Fatal("repair-by-copy adopted corrupt bytes")
	}
	if lc.Nodes[1].Volume().Has(id) {
		t.Fatal("repair-by-copy left a committed replica of corrupt bytes")
	}
	if res := lc.Nodes[1].Volume().Reserved(); len(res) != 0 {
		t.Fatalf("repair-by-copy left reserved extents: %v", res)
	}
}

// TestConcurrentUploadFetchChurn drives uploads, verified fetches, and
// node churn at once — the -race exercise for the ingest data plane.
func TestConcurrentUploadFetchChurn(t *testing.T) {
	lc := ingestCluster(t, ClusterConfig{
		Nodes: 3, Users: 2, PullThrough: true,
		Sweep: SweeperConfig{Interval: 50 * time.Millisecond, ReplicationTarget: 2},
	})
	tok := login(t, lc)
	data := opaqueBytes(5, 128<<10)
	id := storage.DatasetID("up-live")

	man, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
		Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok), Stripes: 2,
	}, id, lc.Config.Group, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Fetchers: striped verified downloads of the live dataset,
	// tolerating churn-window errors (the verifier makes silent
	// corruption impossible; availability gaps are expected).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, len(data))
			for ctx.Err() == nil {
				_, err := cdnclient.Download(ctx, cdnclient.TransferOptions{
					Endpoints: lc.URLs(), Token: string(tok), Stripes: 3,
				}, man, &writerAt{b: dst})
				if err == nil && !bytes.Equal(dst, data) {
					t.Error("verified download returned wrong bytes")
					return
				}
			}
		}()
	}
	// Uploader: new opaque datasets keep arriving on other edges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			d := opaqueBytes(int64(100+i), 32<<10)
			_, _ = cdnclient.Upload(ctx, cdnclient.TransferOptions{
				Endpoints: []string{lc.Nodes[1].BaseURL()}, Token: string(tok), Stripes: 2,
			}, storage.DatasetID(fmt.Sprintf("up-live-%03d", i)), lc.Config.Group,
				bytes.NewReader(d), int64(len(d)))
		}
	}()
	// Churn: the third edge dies and returns, twice.
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(300 * time.Millisecond)
		lc.Nodes[2].Crash()
		time.Sleep(300 * time.Millisecond)
		if err := lc.Nodes[2].Start(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	cancel()
	wg.Wait()

	// Post-churn reconciliation: the dataset still downloads byte-exact.
	dst := make([]byte, len(data))
	if _, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{
		Endpoints: lc.URLs(), Token: string(tok), Stripes: 3,
	}, man, &writerAt{b: dst}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("post-churn download diverges")
	}
	var regen uint64
	for _, n := range lc.Nodes {
		regen += n.Metrics.IngestRepairRegenerated.Value()
	}
	if regen != 0 {
		t.Fatalf("%d opaque repairs regenerated bytes", regen)
	}
}
