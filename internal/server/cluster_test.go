package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scdn/internal/ingest"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// TestClusterConcurrentEndToEnd drives a 3-node cluster over loopback
// TCP with closed-loop concurrent workers — the in-repo version of the
// scdn-loadgen acceptance run. Every worker logs in over the wire,
// fetches datasets from edges chosen round-robin (forcing a mix of local
// hits and peer fallbacks), and verifies every payload. Afterwards the
// cluster's /metrics expositions must reconcile exactly with the
// client-side totals. Run under -race this is the serving plane's
// concurrency regression test.
func TestClusterConcurrentEndToEnd(t *testing.T) {
	const (
		workers    = 8
		perWorker  = 25
		totalFetch = workers * perWorker
	)
	lc := startCluster(t, ClusterConfig{
		Nodes: 3, Users: workers, Datasets: 9,
		DatasetBytes: 32 << 10, PullThrough: true,
	})
	urls := lc.URLs()

	var issued, failed, resolves atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			var loginResp LoginResponse
			code := doJSON(t, client, http.MethodPost, urls[w%len(urls)]+"/v1/login", "",
				LoginRequest{User: int64(lc.UserIDs[w])}, &loginResp)
			if code != http.StatusOK {
				t.Errorf("worker %d login = %d", w, code)
				return
			}
			tok := socialnet.Token(loginResp.Token)
			for i := 0; i < perWorker; i++ {
				// Dataset and edge stride differently so workers hit a
				// mix of origin nodes (local hits) and non-holders
				// (peer fallbacks).
				ds := lc.DatasetIDs[(w+i)%len(lc.DatasetIDs)]
				base := urls[i%len(urls)]
				// Every 5th access resolves first, like the simulated
				// client's access protocol.
				if i%5 == 0 {
					var res ResolveResponse
					if code := doJSON(t, client, http.MethodPost, base+"/v1/resolve", tok,
						ResolveRequest{Dataset: string(ds)}, &res); code != http.StatusOK {
						t.Errorf("worker %d resolve %s = %d", w, ds, code)
						failed.Add(1)
						continue
					}
					resolves.Add(1)
				}
				issued.Add(1)
				req, err := http.NewRequest(http.MethodGet, base+"/v1/fetch/"+string(ds), nil)
				if err != nil {
					t.Error(err)
					failed.Add(1)
					continue
				}
				req.Header.Set("Authorization", "Bearer "+string(tok))
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("worker %d fetch %s: %v", w, ds, err)
					failed.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d fetch %s = %s", w, ds, resp.Status)
					resp.Body.Close()
					failed.Add(1)
					continue
				}
				if _, err := VerifyPayload(resp.Body, ds, lc.Config.DatasetBytes); err != nil {
					t.Error(err)
					failed.Add(1)
				}
				resp.Body.Close()
			}
			// Report client-side statistics, as the paper's CDN client does.
			code = doJSON(t, client, http.MethodPost, urls[w%len(urls)]+"/v1/report", tok,
				ReportRequest{Client: int64(lc.UserIDs[w]), Accesses: perWorker}, nil)
			if code != http.StatusNoContent {
				t.Errorf("worker %d report = %d", w, code)
			}
		}(w)
	}
	wg.Wait()
	quiesce(t, lc)

	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests failed", failed.Load(), issued.Load())
	}
	if issued.Load() != totalFetch {
		t.Fatalf("issued %d fetches, want %d", issued.Load(), totalFetch)
	}

	// Reconcile server-side metrics with client-side totals.
	var fetches, fetchFail, latCount, resolveTotal, hits, reported uint64
	for _, n := range lc.Nodes {
		m := n.Metrics
		fetches += m.FetchRequests.Value()
		fetchFail += m.FetchFailures.Value()
		latCount += m.FetchLatency.Count()
		resolveTotal += m.ResolveRequests.Value()
		hits += m.LocalHits.Value() + m.PeerHits.Value() + m.OriginFetches.Value()
		reported += m.ReportedAccesses.Value()
	}
	if fetches != totalFetch {
		t.Errorf("cluster fetch_requests_total = %d, want %d", fetches, totalFetch)
	}
	if fetchFail != 0 {
		t.Errorf("cluster fetch_failures_total = %d, want 0", fetchFail)
	}
	if latCount != totalFetch {
		t.Errorf("cluster fetch latency samples = %d, want %d", latCount, totalFetch)
	}
	if resolveTotal != resolves.Load() {
		t.Errorf("cluster resolve_requests_total = %d, want %d", resolveTotal, resolves.Load())
	}
	// Local hits on peer hops mean hits can exceed client fetches only
	// via peer-internal serving; client-facing outcomes must cover every
	// client fetch.
	if hits < totalFetch {
		t.Errorf("hit outcomes = %d, want >= %d", hits, totalFetch)
	}
	if reported != workers*perWorker {
		t.Errorf("reported accesses = %d, want %d", reported, workers*perWorker)
	}

	// With pull-through caching and nine datasets hammered from three
	// edges, demand must have replicated data beyond the origins.
	extra := 0
	for _, ds := range lc.DatasetIDs {
		if c := len(lc.Catalog.AppendHolders(nil, ds)); c > 1 {
			extra += c - 1
		}
	}
	if extra == 0 {
		t.Error("pull-through caching never replicated a dataset")
	}
}

// TestClusterShutdownUnderLoad checks graceful shutdown drains in-flight
// requests: workers hammer the cluster while it shuts down; every
// response must be either a success or a connection error — never a
// truncated/corrupt payload.
func TestClusterShutdownUnderLoad(t *testing.T) {
	lc := startCluster(t, ClusterConfig{Nodes: 3, Users: 2, Datasets: 3, DatasetBytes: 256 << 10})
	tok := login(t, lc)
	urls := lc.URLs()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ds := lc.DatasetIDs[i%len(lc.DatasetIDs)]
				req, _ := http.NewRequest(http.MethodGet,
					urls[i%len(urls)]+"/v1/fetch/"+string(ds), nil)
				req.Header.Set("Authorization", "Bearer "+string(tok))
				resp, err := client.Do(req)
				if err != nil {
					continue // refused mid-shutdown: fine
				}
				if resp.StatusCode == http.StatusOK {
					if _, err := VerifyPayload(resp.Body, ds, lc.Config.DatasetBytes); err != nil {
						// A drained request must still complete its stream.
						t.Errorf("in-flight payload corrupted during shutdown: %v", err)
					}
				}
				resp.Body.Close()
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lc.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestClusterStartupErrors exercises bootstrap validation, and that a
// failed start removes the temp store root it created.
func TestClusterStartupErrors(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	// A segment size off the ingest block grid fails the first node's
	// construction, after the store root exists.
	_, err := StartLocalCluster(ClusterConfig{
		Nodes: 1, Users: 1, Datasets: 1, SegmentSize: 1000,
	})
	if err == nil {
		t.Fatal("segment size off the block grid accepted")
	}
	if !strings.Contains(err.Error(), "segment size") {
		t.Fatalf("unexpected error: %v", err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("failed start left %d entries in the temp dir, first %q", len(left), left[0].Name())
	}
}

// TestSeededManifestsMatchGeneratedBytes: every seeded manifest, built
// from one block of the repeating payload, equals the manifest of the
// generated bytes themselves — at a size that ends in a short block.
func TestSeededManifestsMatchGeneratedBytes(t *testing.T) {
	const size = 3*ingest.DefaultBlockSize + 4097
	lc := startCluster(t, ClusterConfig{Nodes: 2, Datasets: 5, DatasetBytes: size,
		Sweep: SweeperConfig{Disabled: true}})
	if len(lc.DatasetIDs) != 5 {
		t.Fatalf("seeded %d datasets, want 5", len(lc.DatasetIDs))
	}
	for d, id := range lc.DatasetIDs {
		if want := storage.DatasetID(fmt.Sprintf("ds-%03d", d+1)); id != want {
			t.Fatalf("DatasetIDs[%d] = %s, want %s", d, id, want)
		}
		got, ok := lc.Manifests.Get(id)
		if !ok {
			t.Fatalf("%s has no manifest", id)
		}
		want, err := ingest.HashAt(payloadBlock(id), size, id, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: seeded manifest diverges from the hash of its generated bytes", id)
		}
	}
}
