package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// startCluster spins up an in-process cluster and registers cleanup.
func startCluster(t *testing.T, cfg ClusterConfig) *LocalCluster {
	t.Helper()
	lc, err := StartLocalCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Shutdown(ctx)
	})
	return lc
}

func login(t *testing.T, lc *LocalCluster) socialnet.Token {
	t.Helper()
	tok, err := lc.Login(lc.UserIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// doJSON posts v and decodes the response into out (if non-nil),
// returning the status code.
func doJSON(t *testing.T, client *http.Client, method, url string, tok socialnet.Token,
	v, out interface{}) int {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
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
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// fetchDataset GETs a dataset and verifies the payload stream.
func fetchDataset(t *testing.T, client *http.Client, base string, tok socialnet.Token,
	id string, wantBytes int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/fetch/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("fetch %s from %s: %s: %s", id, base, resp.Status, b)
	}
	if _, err := VerifyPayload(resp.Body, storageID(id), wantBytes); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthzAndMetrics(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	base := lc.Nodes[0].BaseURL()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %s %q", resp.Status, body)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "scdn_up 1") {
		t.Fatalf("metrics exposition missing scdn_up:\n%s", body)
	}
}

func TestLoginResolveFetchOverHTTP(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 2, Datasets: 2})
	client := &http.Client{Timeout: 5 * time.Second}
	base := lc.Nodes[0].BaseURL()

	// Login over the wire.
	var loginResp LoginResponse
	if code := doJSON(t, client, http.MethodPost, base+"/v1/login", "",
		LoginRequest{User: int64(lc.UserIDs[0])}, &loginResp); code != 200 {
		t.Fatalf("login = %d", code)
	}
	tok := socialnet.Token(loginResp.Token)

	// Resolve ds-001 (origin node 1).
	var res ResolveResponse
	if code := doJSON(t, client, http.MethodPost, base+"/v1/resolve", tok,
		ResolveRequest{Dataset: "ds-001"}, &res); code != 200 {
		t.Fatalf("resolve = %d", code)
	}
	if res.Node != 1 || !res.Origin || res.Bytes != lc.Config.DatasetBytes {
		t.Fatalf("resolve = %+v", res)
	}
	if res.URL != lc.Nodes[0].BaseURL() {
		t.Fatalf("resolve URL = %q, want %q", res.URL, lc.Nodes[0].BaseURL())
	}

	// Fetch from the resolved edge: a local hit there.
	resp := fetchDataset(t, client, res.URL, tok, "ds-001", res.Bytes)
	quiesce(t, lc)
	if src := resp.Header.Get("X-SCDN-Source"); src != "1" {
		t.Fatalf("source = %q", src)
	}
	if lc.Nodes[0].Metrics.LocalHits.Value() != 1 {
		t.Fatal("local hit not counted")
	}

	// Report usage statistics.
	code := doJSON(t, client, http.MethodPost, base+"/v1/report", tok,
		ReportRequest{Client: int64(lc.UserIDs[0]), Accesses: 3,
			ByOutcome: map[string]uint64{"local-hit": 3}}, nil)
	if code != http.StatusNoContent {
		t.Fatalf("report = %d", code)
	}
	if lc.Nodes[0].Metrics.Reports.Value() != 1 ||
		lc.Nodes[0].Metrics.ReportedAccesses.Value() != 3 {
		t.Fatal("report not counted")
	}
}

func TestFetchPeerFallback(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 3, Users: 1, Datasets: 3})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)

	// ds-001's origin is node 1; fetch it via node 2 → one proxy hop.
	base2 := lc.Nodes[1].BaseURL()
	fetchDataset(t, client, base2, tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if lc.Nodes[1].Metrics.OriginFetches.Value() != 1 {
		t.Fatalf("origin fetches on node2 = %d, want 1",
			lc.Nodes[1].Metrics.OriginFetches.Value())
	}
	if lc.Nodes[0].Metrics.PeerFetchRequests.Value() != 1 {
		t.Fatalf("peer fetches on node1 = %d, want 1",
			lc.Nodes[0].Metrics.PeerFetchRequests.Value())
	}
	// The peer hop must not inflate client-facing counters on node 1.
	if lc.Nodes[0].Metrics.FetchRequests.Value() != 0 {
		t.Fatal("peer hop counted as client fetch")
	}
}

func TestFetchUnknownAndUnauthorized(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	base := lc.Nodes[0].BaseURL()
	tok := login(t, lc)

	// No token.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/fetch/ds-001", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless fetch = %s", resp.Status)
	}

	// Unknown dataset is denied at the trust boundary (unscoped data
	// never flows), matching the simulated client's Denied outcome.
	req, _ = http.NewRequest(http.MethodGet, base+"/v1/fetch/nope", nil)
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unknown dataset fetch = %s", resp.Status)
	}
	if lc.Nodes[0].Metrics.AuthDenied.Value() != 2 {
		t.Fatalf("auth denied = %d, want 2", lc.Nodes[0].Metrics.AuthDenied.Value())
	}
	if lc.Nodes[0].Metrics.FetchFailures.Value() != 2 {
		t.Fatalf("fetch failures = %d, want 2", lc.Nodes[0].Metrics.FetchFailures.Value())
	}
}

func TestResolveMissWhenHolderOffline(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)

	// Take the only holder of ds-001 (node 1, its origin) offline.
	lc.Registry.SetOnline(1, false)
	var res ResolveResponse
	code := doJSON(t, client, http.MethodPost, lc.Nodes[1].BaseURL()+"/v1/resolve", tok,
		ResolveRequest{Dataset: "ds-001"}, &res)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("resolve with offline holder = %d", code)
	}
	if lc.Nodes[1].Metrics.ResolveMisses.Value() != 1 {
		t.Fatal("resolve miss not counted")
	}
	lc.Registry.SetOnline(1, true)
	if code := doJSON(t, client, http.MethodPost, lc.Nodes[1].BaseURL()+"/v1/resolve", tok,
		ResolveRequest{Dataset: "ds-001"}, &res); code != 200 {
		t.Fatalf("resolve after rejoin = %d", code)
	}
}

func TestFetchRetriesDeadPeerThenFallsBack(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2})
	client := &http.Client{Timeout: 10 * time.Second}
	tok := login(t, lc)

	// Register a phantom replica of ds-001 on a member whose endpoint is
	// a dead port: attempt 1 targets it (same site as node 2 → lowest
	// RTT), fails, and the bounded retry loop must back off and fall
	// back to the live origin.
	dead := allocation.NodeID(99)
	lc.Registry.Register(Member{Node: dead, Site: 1, BaseURL: "http://127.0.0.1:1", Online: true})
	if err := lc.Catalog.AddReplica("ds-001", dead, 0); err != nil {
		t.Fatal(err)
	}
	fetchDataset(t, client, lc.Nodes[1].BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if lc.Nodes[1].Metrics.PeerRetries.Value() == 0 {
		t.Fatal("dead peer did not trigger a retry")
	}
	if lc.Nodes[1].Metrics.OriginFetches.Value() != 1 {
		t.Fatal("fallback to origin not recorded")
	}
}

func TestFetchFailsWhenNoReachableReplica(t *testing.T) {
	// Sweeper off: the test drives membership by hand, and a live prober
	// would re-admit node 1 the moment it noticed healthz still answers.
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2,
		Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)

	// All holders of ds-001 offline → node 2 has nobody to proxy from.
	lc.Registry.SetOnline(1, false)
	req, _ := http.NewRequest(http.MethodGet, lc.Nodes[1].BaseURL()+"/v1/fetch/ds-001", nil)
	req.Header.Set("Authorization", "Bearer "+string(tok))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Zero live holders of a catalogued dataset is churn-style
	// unavailability: 503 with a Retry-After hint, counted under the
	// churn metric — not a fetch failure.
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unreachable fetch = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("churn 503 missing Retry-After")
	}
	if lc.Nodes[1].Metrics.ChurnUnavailable.Value() != 1 {
		t.Fatal("churn unavailability not counted")
	}
	if lc.Nodes[1].Metrics.FetchFailures.Value() != 0 {
		t.Fatal("churn unavailability miscounted as fetch failure")
	}
	if got := lc.Nodes[1].Metrics.PeerRetries.Value(); got != 0 {
		t.Fatalf("spent %d of the %d peer attempts with no live holder", got+1, fetchAttempts)
	}
}

func TestPullThroughCachesReplica(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, PullThrough: true})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	base2 := lc.Nodes[1].BaseURL()

	// First access proxies from the origin and caches the replica...
	fetchDataset(t, client, base2, tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if got := lc.Catalog.ReplicaCount("ds-001"); got != 2 {
		t.Fatalf("replica count after pull-through = %d, want 2", got)
	}
	st := lc.Nodes[1].RepoStats()
	if st.ReplicaObjects != 1 {
		t.Fatalf("node2 replica objects = %d, want 1", st.ReplicaObjects)
	}
	// ...so the second access is a local hit on node 2.
	fetchDataset(t, client, base2, tok, "ds-001", lc.Config.DatasetBytes)
	quiesce(t, lc)
	if lc.Nodes[1].Metrics.LocalHits.Value() != 1 {
		t.Fatalf("local hits on node2 = %d, want 1", lc.Nodes[1].Metrics.LocalHits.Value())
	}
}

func TestGracefulShutdown(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 1})
	node := lc.Nodes[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := node.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if lc.Registry.Online(node.ID()) {
		t.Fatal("shut-down node still online in registry")
	}
	if _, err := http.Get(node.BaseURL() + "/healthz"); err == nil {
		t.Fatal("shut-down node still serving")
	}
	// Second shutdown is a no-op.
	if err := node.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStopIgnoresUnusedConnection: a connection that was dialed but
// never sent a request carries nothing in flight, so Stop must not wait
// on it (net/http's Shutdown alone counts one busy for 5 s).
func TestStopIgnoresUnusedConnection(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1})
	node := lc.Nodes[0]
	conn, err := net.Dial("tcp", strings.TrimPrefix(node.BaseURL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The listener accepts in dial order, so once a later connection
	// has been answered the silent one is accepted and tracked too.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(node.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := node.Stop(ctx); err != nil {
		t.Fatalf("stop with an unused connection open: %v", err)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{Node: 1}, nil, nil, nil, nil); err == nil {
		t.Fatal("missing collaborators accepted")
	}
	// Every collaborator present but no replica volume: the volume is
	// the node's only store, so it is required too.
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, Sweep: SweeperConfig{Disabled: true}})
	repo, err := storage.NewRepository(9, 0, 1<<20, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Config{Node: 9}, repo, lc.Middleware, lc.Catalog, lc.Registry); err == nil {
		t.Fatal("node without a replica volume accepted")
	}
}

// storageID converts for test readability.
func storageID(id string) storage.DatasetID { return storage.DatasetID(id) }

// quiesce waits until no node of the cluster has a request in flight,
// so counters bumped in a handler's epilogue — after the client already
// read EOF — are settled before a test reads them.
func quiesce(t *testing.T, lc *LocalCluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lc.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}
