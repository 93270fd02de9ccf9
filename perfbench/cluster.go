package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/server"
	"scdn/internal/storage"
)

const edges = 3

// corpus is the working set the benchmark expects and checks against:
// each dataset's ID, the bytes it must hold and the edge it lives on.
type corpus struct {
	ids     []storage.DatasetID
	pats    []*pattern
	holders []int // holders[d] is the edge index holding dataset d
	size    int64 // every dataset of the corpus has this size
}

// newCorpus builds the expected working set. The layout is frozen:
// dataset d lives only on edge d mod 3 — the cluster's round-robin
// origins for its seeded datasets ("ds-001", ...), and the upload
// target the set-up picks for ingested ones.
func newCorpus(w *workload) *corpus {
	n, size, name := w.datasets, w.datasetBytes, "ds-%03d"
	if w.uploads > 0 {
		n, size, name = w.uploads, w.uploadBytes, "in-%04d"
	}
	c := &corpus{size: size}
	for d := 0; d < n; d++ {
		id := storage.DatasetID(fmt.Sprintf(name, d+1))
		c.ids = append(c.ids, id)
		c.pats = append(c.pats, payloadPattern(id))
		c.holders = append(c.holders, d%edges)
	}
	return c
}

// env is one started cluster with the working set materialized and
// warm, plus what the clients need to drive and check it.
type env struct {
	*corpus
	w        *workload
	lc       *server.LocalCluster
	storeDir string
	urls     []string
	tokens   []string
	hc       *http.Client
}

// newHTTPClient returns the benchmark's own keep-alive client. It does
// not share the edges' peer transport, so client and peer connection
// pools stay apart.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// setup starts a cluster over storeDir and brings it to the state every
// timed op starts from: layout frozen at one holder per dataset, that
// layout checked, every (dataset, holder) pair materialized and read
// once, and each edge's peer connections opened. All of it is work —
// nothing here sleeps or polls.
func setup(w *workload, cp *corpus, storeDir string, clients int) (*env, error) {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	cfg := server.ClusterConfig{
		Nodes:     edges,
		StoreMode: server.StoreModeDir,
		StoreDir:  storeDir,
		Seed:      1,
		// One live copy is the floor, so repair never adds a holder.
		Sweep: server.SweeperConfig{ReplicationTarget: 1},
	}
	if w.uploads > 0 {
		cfg.NoSeedDatasets = true
	} else {
		cfg.Datasets, cfg.DatasetBytes = w.datasets, w.datasetBytes
	}
	if w.segmentSize > 0 {
		cfg.SegmentSize = w.segmentSize
		// The store lives in the checkout. Where that is a disk, the
		// page drop behind each sequential segment serve would make
		// every pass a read of the host's virtual disk, which is not
		// the deployment's disk; keeping the pages serves from memory
		// as a RAM-backed store does.
		cfg.KeepSegmentPages = !ramBacked(fsType(storeDir))
	}
	lc, err := server.StartLocalCluster(cfg)
	if err != nil {
		return nil, err
	}
	// A replica budget of one stops demand-driven placement too.
	lc.Catalog.SetPolicy(1, 10)
	e := &env{corpus: cp, w: w, lc: lc, storeDir: storeDir, urls: lc.URLs(), hc: newHTTPClient()}
	for c := 0; c < clients; c++ {
		tok, err := lc.Login(lc.UserIDs[c%len(lc.UserIDs)])
		if err != nil {
			e.close()
			return nil, err
		}
		e.tokens = append(e.tokens, string(tok))
	}
	if err := e.populate(clients); err != nil {
		e.close()
		return nil, err
	}
	if err := e.checkLayout(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.warm(clients); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// populate puts the corpus on the cluster: it checks the cluster seeded
// exactly the expected datasets, or uploads the benchmark's own sources,
// each to its frozen holder.
func (e *env) populate(clients int) error {
	if e.w.uploads == 0 {
		if !slices.Equal(e.lc.DatasetIDs, e.ids) {
			return fmt.Errorf("cluster seeded %d datasets, not the %d expected", len(e.lc.DatasetIDs), len(e.ids))
		}
		return nil
	}
	return parallel(clients, len(e.ids), func(c, d int) error {
		_, err := e.upload(context.Background(), c, e.ids[d], e.pats[d], e.holders[d])
		return err
	})
}

// upload publishes size bytes of pat as id through edge node.
func (e *env) upload(ctx context.Context, c int, id storage.DatasetID, pat *pattern, node int) (int64, error) {
	man, err := cdnclient.Upload(ctx, cdnclient.TransferOptions{
		Client: e.hc, Endpoints: []string{e.urls[node]}, Token: e.tokens[c], Stripes: 1,
	}, id, e.lc.Config.Group, pat, e.w.uploadBytes)
	if err != nil {
		return 0, err
	}
	if man.Size != e.w.uploadBytes {
		return 0, fmt.Errorf("upload %s: manifest size %d, want %d", id, man.Size, e.w.uploadBytes)
	}
	return man.Size, nil
}

// checkLayout asserts the frozen layout: each dataset has exactly one
// holder, and it is the one the plan was built against.
func (e *env) checkLayout() error {
	for d, id := range e.ids {
		reps, err := e.lc.Catalog.Replicas(id)
		if err != nil {
			return err
		}
		want := e.lc.Nodes[e.holders[d]].ID()
		if len(reps) != 1 || reps[0].Node != want {
			return fmt.Errorf("layout: %s has holders %v, want only node %d", id, reps, want)
		}
	}
	return nil
}

// warm reads every dataset once at its holder (materializing it) and
// has every edge relay one small range from each peer, so the timed
// phase starts with files on the volumes and connections open.
func (e *env) warm(clients int) error {
	cs := make([]*client, clients)
	for c := range cs {
		cs[c] = newClient(e, c)
	}
	ctx := context.Background()
	err := parallel(clients, len(e.ids), func(c, d int) error {
		o := op{kind: opWhole, ds: int32(d), node: int8(e.holders[d]), holder: true}
		_, _, err := cs[c].do(ctx, 0, &o)
		return err
	})
	if err != nil || e.w.uploads > 0 {
		return err
	}
	for node := 0; node < edges; node++ {
		for d := 0; d < edges && d < len(e.ids); d++ {
			if e.holders[d] == node {
				continue
			}
			o := op{kind: opRange, ds: int32(d), node: int8(node), parts: []span{{0, 4 * kib}}}
			if _, _, err := cs[0].do(ctx, 0, &o); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops the cluster and deletes its store.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := e.lc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	e.hc.CloseIdleConnections()
	if err := os.RemoveAll(e.storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove store:", err)
	}
}

// parallel runs fn(worker, i) for i in [0, n) on the given number of
// workers and returns the first error.
func parallel(workers, n int, fn func(worker, i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(c, i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// nodeCounts is the sum over edges of the Node.Metrics counters the
// benchmark reconciles and attributes.
type nodeCounts struct {
	fetch, segFetch, peerFetch, peerSegFetch, resolves, uploads,
	fetchFailures, segFailures, localHits, segmentedServes, rangeMultipart,
	materializations, repairCopies, peerRetries, probeFailures, digestRejects,
	fadviseSeq, fadviseDontNeed, sweeps uint64
}

func (e *env) counts() nodeCounts {
	var s nodeCounts
	for _, n := range e.lc.Nodes {
		m := n.Metrics
		s.fetch += m.FetchRequests.Value()
		s.segFetch += m.SegmentFetchRequests.Value()
		s.peerFetch += m.PeerFetchRequests.Value()
		s.peerSegFetch += m.PeerSegmentFetchRequests.Value()
		s.resolves += m.ResolveRequests.Value()
		s.uploads += m.IngestUploads.Value()
		s.fetchFailures += m.FetchFailures.Value()
		s.segFailures += m.SegmentFetchFailures.Value()
		s.localHits += m.LocalHits.Value()
		s.segmentedServes += m.SegmentedServes.Value()
		s.rangeMultipart += m.RangeMultipart.Value()
		s.materializations += m.StoreMaterializations.Value()
		s.repairCopies += m.IngestRepairCopies.Value() + m.RepairReplicasRestored.Value()
		s.peerRetries += m.PeerRetries.Value()
		s.probeFailures += m.ProbeFailures.Value()
		s.digestRejects += m.IngestDigestRejects.Value()
		s.fadviseSeq += m.StoreFadviseSequential.Value()
		s.fadviseDontNeed += m.StoreFadviseDontNeed.Value()
		s.sweeps += m.RepairSweeps.Value()
	}
	return s
}

func (a nodeCounts) sub(b nodeCounts) nodeCounts {
	return nodeCounts{
		a.fetch - b.fetch, a.segFetch - b.segFetch, a.peerFetch - b.peerFetch,
		a.peerSegFetch - b.peerSegFetch, a.resolves - b.resolves, a.uploads - b.uploads,
		a.fetchFailures - b.fetchFailures, a.segFailures - b.segFailures, a.localHits - b.localHits,
		a.segmentedServes - b.segmentedServes, a.rangeMultipart - b.rangeMultipart,
		a.materializations - b.materializations, a.repairCopies - b.repairCopies,
		a.peerRetries - b.peerRetries, a.probeFailures - b.probeFailures,
		a.digestRejects - b.digestRejects, a.fadviseSeq - b.fadviseSeq,
		a.fadviseDontNeed - b.fadviseDontNeed, a.sweeps - b.sweeps,
	}
}

// reconcile checks the edges' own counts of a timed phase against the
// requests the clients issued in it. Every counter compared here is
// incremented before the response is written, so a finished client
// phase has settled them.
func reconcile(d nodeCounts, issued reqCounts) error {
	checks := []struct {
		what      string
		got, want uint64
	}{
		{"client-facing fetches", d.fetch, issued.fetch},
		{"client-facing segment fetches", d.segFetch, issued.seg},
		{"peer fetch requests", d.peerFetch + d.peerSegFetch, issued.peer},
		{"resolves", d.resolves, issued.resolve},
		{"ingest uploads", d.uploads, issued.upload},
		{"fetch failures", d.fetchFailures + d.segFailures, 0},
		{"materializations", d.materializations, 0},
		{"repair copies", d.repairCopies, 0},
		{"peer retries", d.peerRetries, 0},
		{"probe failures", d.probeFailures, 0},
		{"digest rejects", d.digestRejects, 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("reconcile: edges counted %d %s, want %d", c.got, c.what, c.want)
		}
	}
	return nil
}
