package server

import (
	"bytes"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"testing"
	"time"

	"scdn/internal/socialnet"
)

// rangeGet fetches a dataset with a Range header and returns the response
// plus the fully-read body.
func rangeGet(t *testing.T, client *http.Client, base, tok, id, rangeHeader string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/fetch/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	if rangeHeader != "" {
		req.Header.Set("Range", rangeHeader)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestFetchFullResponseHeaders(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	resp, body := rangeGet(t, client, lc.Nodes[0].BaseURL(), tok, "ds-001", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full fetch = %s", resp.Status)
	}
	if got := resp.Header.Get("Accept-Ranges"); got != "bytes" {
		t.Fatalf("Accept-Ranges = %q, want bytes", got)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(lc.Config.DatasetBytes) {
		t.Fatalf("Content-Length = %q, want %d", got, lc.Config.DatasetBytes)
	}
	if int64(len(body)) != lc.Config.DatasetBytes {
		t.Fatalf("body = %d bytes", len(body))
	}
}

func TestFetchRangeLocal(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	base := lc.Nodes[0].BaseURL()
	total := lc.Config.DatasetBytes

	var whole bytes.Buffer
	if _, err := WritePayload(&whole, "ds-001", total); err != nil {
		t.Fatal(err)
	}
	ref := whole.Bytes()

	cases := []struct {
		header string
		off, n int64
	}{
		{"bytes=0-1023", 0, 1024},
		{"bytes=5000-5000", 5000, 1},                                 // single mid-block byte
		{fmt.Sprintf("bytes=%d-%d", total-1, total-1), total - 1, 1}, // last byte
		{fmt.Sprintf("bytes=%d-", total-100), total - 100, 100},
		{"bytes=-256", total - 256, 256},
	}
	for _, tc := range cases {
		resp, body := rangeGet(t, client, base, tok, "ds-001", tc.header)
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status %s, want 206", tc.header, resp.Status)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", tc.off, tc.off+tc.n-1, total)
		if got := resp.Header.Get("Content-Range"); got != wantCR {
			t.Fatalf("%s: Content-Range = %q, want %q", tc.header, got, wantCR)
		}
		if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(tc.n) {
			t.Fatalf("%s: Content-Length = %q, want %d", tc.header, got, tc.n)
		}
		if !bytes.Equal(body, ref[tc.off:tc.off+tc.n]) {
			t.Fatalf("%s: body diverges from payload slice", tc.header)
		}
	}
	if lc.Nodes[0].Metrics.RangeRequests.Value() != uint64(len(cases)) {
		t.Fatalf("range requests = %d, want %d",
			lc.Nodes[0].Metrics.RangeRequests.Value(), len(cases))
	}
}

func TestFetchRangeRejected(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	base := lc.Nodes[0].BaseURL()
	total := lc.Config.DatasetBytes

	// 17 disjoint parts: one past the multipart cap.
	tooMany := "bytes=0-0"
	for i := 1; i <= maxRangeParts; i++ {
		tooMany += fmt.Sprintf(",%d-%d", i*10, i*10)
	}
	for _, h := range []string{
		"bytes=oops",
		"bytes=9-5",
		"bytes=-0",
		"bytes=0-10,20-oops", // one bad part poisons the whole set
		tooMany,
		fmt.Sprintf("bytes=%d-", total), // offset == size
		fmt.Sprintf("bytes=%d-%d", total+1, total+9),
		fmt.Sprintf("bytes=0-10,%d-", total), // one unsatisfiable part poisons the set
	} {
		resp, _ := rangeGet(t, client, base, tok, "ds-001", h)
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("%s: status %s, want 416", h, resp.Status)
		}
		if got := resp.Header.Get("Content-Range"); got != fmt.Sprintf("bytes */%d", total) {
			t.Fatalf("%s: 416 Content-Range = %q", h, got)
		}
	}
	want := uint64(8)
	if got := lc.Nodes[0].Metrics.RangeNotSatisfiable.Value(); got != want {
		t.Fatalf("range 416s = %d, want %d", got, want)
	}
	if got := lc.Nodes[0].Metrics.FetchFailures.Value(); got != want {
		t.Fatalf("fetch failures = %d, want %d", got, want)
	}
}

// readMultipartBody parses a multipart/byteranges response and returns
// the per-part Content-Range headers and bodies, failing on any framing
// defect.
func readMultipartBody(t *testing.T, resp *http.Response, body []byte) (crs []string, parts [][]byte) {
	t.Helper()
	mediaType, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatalf("Content-Type %q: %v", resp.Header.Get("Content-Type"), err)
	}
	if mediaType != "multipart/byteranges" {
		t.Fatalf("media type = %q, want multipart/byteranges", mediaType)
	}
	if params["boundary"] == "" {
		t.Fatal("no boundary parameter")
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return crs, parts
		}
		if err != nil {
			t.Fatalf("part %d: %v", len(parts), err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatalf("part %d body: %v", len(parts), err)
		}
		crs = append(crs, p.Header.Get("Content-Range"))
		parts = append(parts, data)
	}
}

// testFetchRangeMultipart drives multipart Range requests against a
// 1-node cluster in the given store mode and verifies the
// multipart/byteranges framing byte for byte.
func testFetchRangeMultipart(t *testing.T, storeMode string) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, StoreMode: storeMode})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	base := lc.Nodes[0].BaseURL()
	total := lc.Config.DatasetBytes

	var whole bytes.Buffer
	if _, err := WritePayload(&whole, "ds-001", total); err != nil {
		t.Fatal(err)
	}
	ref := whole.Bytes()

	header := fmt.Sprintf("bytes=0-1023,5000-8191,-256,%d-%d", total-1000, total-900)
	wantParts := []struct{ off, n int64 }{
		{0, 1024},
		{5000, 3192},
		{total - 1000, 101},
		{total - 256, 256},
	}
	resp, body := rangeGet(t, client, base, tok, "ds-001", header)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("multipart fetch = %s, want 206", resp.Status)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(body)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", got, len(body))
	}
	crs, parts := readMultipartBody(t, resp, body)
	if len(parts) != len(wantParts) {
		t.Fatalf("%d parts, want %d (ranges must arrive sorted and merged)", len(parts), len(wantParts))
	}
	for i, wp := range wantParts {
		wantCR := fmt.Sprintf("bytes %d-%d/%d", wp.off, wp.off+wp.n-1, total)
		if crs[i] != wantCR {
			t.Fatalf("part %d Content-Range = %q, want %q", i, crs[i], wantCR)
		}
		if !bytes.Equal(parts[i], ref[wp.off:wp.off+wp.n]) {
			t.Fatalf("part %d bytes diverge from payload window %d+%d", i, wp.off, wp.n)
		}
	}
	m := lc.Nodes[0].Metrics
	if m.RangeRequests.Value() != 1 || m.RangeMultipart.Value() != 1 {
		t.Fatalf("range metrics = %d/%d, want 1/1",
			m.RangeRequests.Value(), m.RangeMultipart.Value())
	}
	if storeMode == StoreModeDir && m.StoreDiskHits.Value() == 0 {
		t.Fatal("dir-mode multipart never hit the disk volume")
	}

	// Overlapping and adjacent parts coalesce into one plain 206.
	resp, body = rangeGet(t, client, base, tok, "ds-001", "bytes=100-199,150-299,300-399")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("coalesced fetch = %s, want 206", resp.Status)
	}
	if got := resp.Header.Get("Content-Range"); got != fmt.Sprintf("bytes 100-399/%d", total) {
		t.Fatalf("coalesced Content-Range = %q", got)
	}
	if !bytes.Equal(body, ref[100:400]) {
		t.Fatal("coalesced body diverges from payload window")
	}
	if m.RangeMultipart.Value() != 1 {
		t.Fatal("coalesced single range wrongly counted as multipart")
	}
}

func TestFetchRangeMultipartDisk(t *testing.T)      { testFetchRangeMultipart(t, StoreModeDir) }
func TestFetchRangeMultipartGenerated(t *testing.T) { testFetchRangeMultipart(t, StoreModeGenerated) }

// TestFetchRangeMultipartProxied: an edge that does not hold the dataset
// relays the peer's multipart framing (boundary, Content-Length, parts)
// untouched.
func TestFetchRangeMultipartProxied(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	total := lc.Config.DatasetBytes

	var whole bytes.Buffer
	if _, err := WritePayload(&whole, "ds-001", total); err != nil {
		t.Fatal(err)
	}
	ref := whole.Bytes()

	// ds-001's origin is node 1; ask node 2 for two slices of it.
	resp, body := rangeGet(t, client, lc.Nodes[1].BaseURL(), tok, "ds-001", "bytes=0-99,1000-1099")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("proxied multipart = %s, want 206", resp.Status)
	}
	crs, parts := readMultipartBody(t, resp, body)
	if len(parts) != 2 {
		t.Fatalf("%d parts, want 2", len(parts))
	}
	for i, off := range []int64{0, 1000} {
		wantCR := fmt.Sprintf("bytes %d-%d/%d", off, off+99, total)
		if crs[i] != wantCR {
			t.Fatalf("part %d Content-Range = %q, want %q", i, crs[i], wantCR)
		}
		if !bytes.Equal(parts[i], ref[off:off+100]) {
			t.Fatalf("part %d bytes diverge", i)
		}
	}
	quiesce(t, lc)
	if lc.Nodes[1].Metrics.OriginFetches.Value() != 1 {
		t.Fatal("proxied multipart not accounted as origin fetch")
	}
	// Partial transfers never mint replica records, multipart included.
	if got := lc.Catalog.ReplicaCount("ds-001"); got != 1 {
		t.Fatalf("replica count after multipart fetch = %d, want 1", got)
	}
}

// TestFetchRangeProxied asks an edge that does not hold the dataset for a
// range: the peer hop must forward the range and the client must see a
// 206 with only the requested bytes.
func TestFetchRangeProxied(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	total := lc.Config.DatasetBytes

	// ds-001's origin is node 1; ask node 2 for a slice of it.
	resp, body := rangeGet(t, client, lc.Nodes[1].BaseURL(), tok, "ds-001", "bytes=100-4199")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("proxied range = %s, want 206", resp.Status)
	}
	if got := resp.Header.Get("Content-Range"); got != fmt.Sprintf("bytes 100-4199/%d", total) {
		t.Fatalf("Content-Range = %q", got)
	}
	if _, err := VerifyPayloadRange(bytes.NewReader(body), "ds-001", 100, 4100); err != nil {
		t.Fatal(err)
	}
	quiesce(t, lc)
	if lc.Nodes[1].Metrics.OriginFetches.Value() != 1 {
		t.Fatal("proxied range not accounted as origin fetch")
	}
}

// TestFetchRangeNoPullThrough: a partial transfer must never mint a
// replica record, even with pull-through on.
func TestFetchRangeNoPullThrough(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, PullThrough: true})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))

	resp, _ := rangeGet(t, client, lc.Nodes[1].BaseURL(), tok, "ds-001", "bytes=0-99")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("proxied range = %s", resp.Status)
	}
	quiesce(t, lc)
	if got := lc.Catalog.ReplicaCount("ds-001"); got != 1 {
		t.Fatalf("replica count after range fetch = %d, want 1 (no pull-through)", got)
	}

	// A full fetch still pulls through.
	fetchDataset(t, client, lc.Nodes[1].BaseURL(), socialnet.Token(tok), "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if got := lc.Catalog.ReplicaCount("ds-001"); got != 2 {
		t.Fatalf("replica count after full fetch = %d, want 2", got)
	}
}

func TestResolveListsReplicaHolders(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 3, Users: 1, Datasets: 3})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	if err := lc.Catalog.AddReplica("ds-001", 2, 0); err != nil {
		t.Fatal(err)
	}
	var res ResolveResponse
	if code := doJSON(t, client, http.MethodPost, lc.Nodes[0].BaseURL()+"/v1/resolve", tok,
		ResolveRequest{Dataset: "ds-001"}, &res); code != 200 {
		t.Fatalf("resolve = %d", code)
	}
	if len(res.Replicas) != 2 {
		t.Fatalf("replicas = %+v, want 2 holders", res.Replicas)
	}
	seenOrigin := false
	for _, rep := range res.Replicas {
		if rep.URL == "" {
			t.Fatalf("holder %d has no URL", rep.Node)
		}
		if rep.Origin {
			if rep.Node != 1 {
				t.Fatalf("origin flag on node %d", rep.Node)
			}
			seenOrigin = true
		}
	}
	if !seenOrigin {
		t.Fatal("origin holder missing from replica list")
	}
}
