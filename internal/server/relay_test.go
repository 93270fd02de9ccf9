package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scdn/internal/storage"
)

// idleCount returns how many relay connections the pool holds idle.
func (p *relayPool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int
	for _, list := range p.idle {
		n += len(list)
	}
	return n
}

// phantomDataset registers a dataset of the given size whose only
// holder is a fake peer at url, as node 99.
func phantomDataset(t *testing.T, lc *LocalCluster, url string, bytes int64) {
	t.Helper()
	phantom := storage.NodeID(99)
	lc.Registry.Register(Member{Node: phantom, Site: 0, BaseURL: url, Online: true})
	if err := lc.Middleware.RegisterDataset("ds-phantom", lc.Config.Group); err != nil {
		t.Fatal(err)
	}
	if err := lc.Catalog.RegisterDataset("ds-phantom", phantom, bytes); err != nil {
		t.Fatal(err)
	}
}

// TestHeadThroughNonHolder is the regression test for HEAD at an edge
// that does not hold the dataset: the hop is forwarded as a HEAD, the
// holder's headers come back exactly as a GET's would, neither edge
// counts a served byte, and nothing is adopted even with pull-through
// on. The matching GET counts the windows' payload on both edges, a
// multipart answer's framing on neither.
func TestHeadThroughNonHolder(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, PullThrough: true,
		Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := string(login(t, lc))
	edge := lc.Nodes[1] // ds-001's origin is node 1
	do := func(method, rangeHdr string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, edge.BaseURL()+"/v1/fetch/ds-001", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+tok)
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if method == http.MethodHead && len(body) != 0 {
			t.Fatalf("HEAD returned %d body bytes", len(body))
		}
		quiesce(t, lc)
		return resp
	}
	// The whole-body case runs last: its GET adopts the dataset.
	for _, tc := range []struct {
		name, rangeHdr string
		payload        uint64 // served bytes each edge counts for the GET
	}{
		{"range", "bytes=100-4199", 4100},
		{"multipart", "bytes=0-99,1000-1099,-256", 100 + 100 + 256},
		{"whole", "", 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			served := []uint64{lc.Nodes[0].Metrics.BytesServed.Value(), edge.Metrics.BytesServed.Value()}
			head := do(http.MethodHead, tc.rangeHdr)
			for i, n := range lc.Nodes {
				if got := n.Metrics.BytesServed.Value(); got != served[i] {
					t.Errorf("node %d counted %d served bytes for a HEAD", i+1, got-served[i])
				}
			}
			if got := len(lc.Catalog.AppendHolders(nil, "ds-001")); got != 1 {
				t.Fatalf("replica count after HEAD = %d, want 1", got)
			}
			if _, _, ok := edge.Volume().Open("ds-001"); ok {
				t.Fatal("HEAD spilled a replica file")
			}
			if got := edge.Metrics.OriginFetches.Value(); got == 0 {
				t.Fatal("HEAD not forwarded to the holder")
			}
			served = []uint64{lc.Nodes[0].Metrics.BytesServed.Value(), edge.Metrics.BytesServed.Value()}
			get := do(http.MethodGet, tc.rangeHdr)
			// Both edges count the windows' payload, never the framing.
			for i, n := range lc.Nodes {
				if got := n.Metrics.BytesServed.Value() - served[i]; got != tc.payload {
					t.Errorf("node %d counted %d served bytes for the GET, want %d", i+1, got, tc.payload)
				}
			}
			if head.StatusCode != get.StatusCode {
				t.Fatalf("HEAD = %s, GET = %s", head.Status, get.Status)
			}
			for _, k := range []string{"Content-Length", "Content-Range", "Accept-Ranges", "X-Scdn-Source"} {
				if head.Header.Get(k) != get.Header.Get(k) {
					t.Fatalf("%s: HEAD %q, GET %q", k, head.Header.Get(k), get.Header.Get(k))
				}
			}
			ht, gt := head.Header.Get("Content-Type"), get.Header.Get("Content-Type")
			if len(ht) != len(gt) || strings.HasPrefix(gt, multipartTypePrefix) != strings.HasPrefix(ht, multipartTypePrefix) {
				t.Fatalf("Content-Type: HEAD %q, GET %q", ht, gt)
			}
		})
	}
	// Only the whole GET adopted.
	if got := len(lc.Catalog.AppendHolders(nil, "ds-001")); got != 2 {
		t.Fatalf("replica count after the whole GET = %d, want 2", got)
	}
}

// TestRelayRetriesConnClosedWhileIdle: a peer that closes every
// connection after one response, without saying so, leaves a dead
// connection in the pool. The next hop finds it dead before any
// response byte and retries once on a fresh dial — silently: no peer
// retry, no failure.
func TestRelayRetriesConnClosedWhileIdle(t *testing.T) {
	const size = 4096
	var payload bytes.Buffer
	if _, err := WritePayload(&payload, "ds-phantom", size); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			if _, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
				fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: application/octet-stream\r\n\r\n", size)
				_, _ = c.Write(payload.Bytes())
			}
			c.Close()
		}
	}()

	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, Sweep: SweeperConfig{Disabled: true}})
	phantomDataset(t, lc, "http://"+ln.Addr().String(), size)
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	fetchDataset(t, client, lc.Nodes[0].BaseURL(), tok, "ds-phantom", size)
	quiesce(t, lc)
	if got := lc.Nodes[0].relay.idleCount(); got != 1 {
		t.Fatalf("idle relay connections after one hop = %d, want 1", got)
	}
	fetchDataset(t, client, lc.Nodes[0].BaseURL(), tok, "ds-phantom", size)
	quiesce(t, lc)
	m := lc.Nodes[0].Metrics
	if got := m.PeerRetries.Value(); got != 0 {
		t.Fatalf("peer retries = %d, want 0: the stale-connection retry is silent", got)
	}
	if got := m.FetchFailures.Value(); got != 0 {
		t.Fatalf("fetch failures = %d, want 0", got)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("peer accepted %d connections, want 2 (one dial, one fresh redial)", got)
	}
}

// TestRelayClientCancelClosesPeerConn: a client that goes away mid-body
// cancels the hop, and the half-read peer connection is closed, never
// pooled.
func TestRelayClientCancelClosesPeerConn(t *testing.T) {
	const size = 4 << 20
	peerGone := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(size))
		_, _ = w.Write(make([]byte, 64<<10))
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			close(peerGone)
		case <-release:
		}
	}))
	defer peer.Close()

	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, Sweep: SweeperConfig{Disabled: true}})
	phantomDataset(t, lc, peer.URL, size)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lc.Nodes[0].BaseURL()+"/v1/fetch/ds-phantom", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+string(login(t, lc)))
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	select {
	case <-peerGone:
	case <-time.After(5 * time.Second):
		t.Fatal("the edge kept the peer connection open after its client went away")
	}
	quiesce(t, lc)
	if got := lc.Nodes[0].relay.idleCount(); got != 0 {
		t.Fatalf("idle relay connections = %d, want 0: a half-read connection was pooled", got)
	}
}

// TestRelayStopCrashCloseIdle: Stop and Crash leave no idle relay
// connection behind, and a restarted node hops again.
func TestRelayStopCrashCloseIdle(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, Sweep: SweeperConfig{Disabled: true}})
	client := &http.Client{Timeout: 5 * time.Second}
	tok := login(t, lc)
	edge := lc.Nodes[1] // ds-001's origin is node 1
	hop := func() {
		t.Helper()
		fetchDataset(t, client, edge.BaseURL(), tok, "ds-001", lc.Config.DatasetBytes)
		quiesce(t, lc)
		if edge.relay.idleCount() == 0 {
			t.Fatal("a finished hop left no idle relay connection")
		}
	}
	hop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := edge.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := edge.relay.idleCount(); got != 0 {
		t.Fatalf("idle relay connections after Stop = %d, want 0", got)
	}
	if err := edge.Start(); err != nil {
		t.Fatal(err)
	}
	hop()
	edge.Crash()
	if got := edge.relay.idleCount(); got != 0 {
		t.Fatalf("idle relay connections after Crash = %d, want 0", got)
	}
}

// TestRelayConcurrentHops drives hops from several clients at once
// through one non-holder: every body arrives intact, and the pool ends
// holding at most one idle connection per concurrent hop.
func TestRelayConcurrentHops(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, Sweep: SweeperConfig{Disabled: true}})
	tok := login(t, lc)
	edge := lc.Nodes[1] // ds-001's origin is node 1
	const workers, hops = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < hops; i++ {
				req, err := http.NewRequest(http.MethodGet, edge.BaseURL()+"/v1/fetch/ds-001", nil)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Authorization", "Bearer "+string(tok))
				resp, err := client.Do(req)
				if err != nil {
					errs <- err
					return
				}
				_, err = VerifyPayload(resp.Body, "ds-001", lc.Config.DatasetBytes)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	quiesce(t, lc)
	if got := edge.Metrics.OriginFetches.Value(); got != workers*hops {
		t.Fatalf("origin fetches = %d, want %d", got, workers*hops)
	}
	if got := edge.relay.idleCount(); got < 1 || got > workers {
		t.Fatalf("idle relay connections = %d, want 1..%d", got, workers)
	}
}

// TestProbeReusesRelayConnection: health probes ride the relay, so
// repeated probes of a healthy peer share one pooled connection — the
// peer sees one dial, not one per probe.
func TestProbeReusesRelayConnection(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, Sweep: SweeperConfig{Disabled: true}})
	n := lc.Nodes[0]
	var dials atomic.Int64
	peer := httptest.NewUnstartedServer(http.HandlerFunc(n.handleHealthz))
	peer.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	peer.Start()
	defer peer.Close()
	for i := 0; i < 5; i++ {
		if err := n.probe(context.Background(), peer.URL); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("5 probes dialed %d connections, want 1", got)
	}
	if got := n.relay.idleCount(); got != 1 {
		t.Fatalf("idle relay connections after the probes = %d, want 1", got)
	}
}

// TestProbeSilentPeerTimesOut: a peer that accepts the connection but
// never answers fails the probe once ProbeTimeout passes, and the
// half-used connection is closed, never pooled.
func TestProbeSilentPeerTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c) // read the probe, answer nothing
		c.Close()
		close(closed)
	}()
	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1,
		Sweep: SweeperConfig{Disabled: true, ProbeTimeout: timeout}})
	n := lc.Nodes[0]
	start := time.Now()
	if err := n.probe(context.Background(), "http://"+ln.Addr().String()); err == nil {
		t.Fatal("a peer that never answered passed the probe")
	}
	if took := time.Since(start); took < timeout || took > timeout+time.Second {
		t.Fatalf("the probe failed after %v, want about ProbeTimeout (%v)", took, timeout)
	}
	if got := n.relay.idleCount(); got != 0 {
		t.Fatalf("idle relay connections = %d, want 0: a timed-out probe's connection was pooled", got)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the node kept the timed-out probe's connection open")
	}
}

// TestProbeStoppedPeerFails: once a peer stops, probing it fails — the
// pooled connection its last good probe left is dead, and the redial
// finds no listener.
func TestProbeStoppedPeerFails(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 2, Users: 1, Datasets: 2, Sweep: SweeperConfig{Disabled: true}})
	prober, peer := lc.Nodes[0], lc.Nodes[1]
	base := peer.BaseURL()
	if err := prober.probe(context.Background(), base); err != nil {
		t.Fatalf("probe of a live peer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := peer.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := prober.probe(context.Background(), base); err == nil {
		t.Fatal("a stopped peer passed the probe")
	}
	if got := prober.relay.idleCount(); got != 0 {
		t.Fatalf("idle relay connections = %d, want 0 after probing a stopped peer", got)
	}
}

// TestRelayRejectsAnswerWithoutLength: every fetch answer an edge
// writes carries a Content-Length, so a holder that answers a
// multipart range with a chunked body is a failed attempt. The edge
// relays none of it, retries, and with no other holder answers 502.
func TestRelayRejectsAnswerWithoutLength(t *testing.T) {
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "multipart/byteranges; boundary=stub")
		w.WriteHeader(http.StatusPartialContent)
		w.(http.Flusher).Flush() // no Content-Length: the body goes out chunked
		_, _ = io.WriteString(w, "--stub\r\nContent-Range: bytes 0-9/4096\r\n\r\n0123456789\r\n--stub--\r\n")
	}))
	defer peer.Close()

	lc := startCluster(t, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, Sweep: SweeperConfig{Disabled: true}})
	phantomDataset(t, lc, peer.URL, 4096)
	edge := lc.Nodes[0]
	resp, body := rangeGet(t, &http.Client{Timeout: 10 * time.Second}, edge.BaseURL(),
		string(login(t, lc)), "ds-phantom", "bytes=0-9,100-199")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502; body %q", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("0123456789")) {
		t.Fatalf("the edge relayed the holder's unframed body: %q", body)
	}
	quiesce(t, lc)
	if got := hits.Load(); got != fetchAttempts {
		t.Fatalf("holder asked %d times, want %d", got, fetchAttempts)
	}
	if got := edge.Metrics.PeerRetries.Value(); got != fetchAttempts-1 {
		t.Fatalf("peer retries = %d, want %d", got, fetchAttempts-1)
	}
	if got := edge.Metrics.BytesServed.Value(); got != 0 {
		t.Fatalf("bytes served = %d, want 0", got)
	}
}
