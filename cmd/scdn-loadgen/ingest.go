package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/loadharness"
	"scdn/internal/server"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

// ingestParams parameterizes an ingest-mode run (scdn-loadgen -ingest):
// user-published opaque datasets instead of seeded deterministic ones.
type ingestParams struct {
	nodes    int
	workers  int
	datasets int
	bytesPer int64
	fetches  int
	stripes  int
	seed     int64
	churn    string
	benchOut string
}

// runIngest drives the live-user data plane end to end: generate opaque
// (non-regenerable) datasets, upload them through PUT /v1/datasets with
// origin affinity, hammer them with verified striped fetches under a
// churn schedule, wait for repair-by-copy to restore the replication
// floor, then reconcile every dataset's bytes against its manifest.
// Opaque datasets make regeneration impossible, so a green run proves
// every re-replication moved real verified bytes between peers.
func runIngest(p ingestParams) {
	const replicationTarget = 2
	lc, err := server.StartLocalCluster(server.ClusterConfig{
		Nodes: p.nodes, Users: p.workers, Seed: p.seed,
		StoreMode: server.StoreModeDir, NoSeedDatasets: true, PullThrough: true,
		Sweep: server.SweeperConfig{ReplicationTarget: replicationTarget},
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = lc.Shutdown(ctx)
	}()
	fmt.Printf("scdn-loadgen: ingest mode: %d-node dir-store cluster, %d opaque datasets × %d bytes\n",
		p.nodes, p.datasets, p.bytesPer)

	ctx := context.Background()
	before := scrapeAll(ctx, lc.URLs())
	start := time.Now()

	// Phase 1 — upload. Dataset d's bytes come from a seeded generator
	// the serving plane has no access to; its origin is node d%N (origin
	// affinity: the receiving edge becomes the first holder).
	payloads := make([][]byte, p.datasets)
	ids := make([]storage.DatasetID, p.datasets)
	client := transport.NewClient(30 * time.Second)
	tokens := make([]string, len(lc.Nodes))
	for i, nd := range lc.Nodes {
		tok, err := loginHTTP(ctx, client, nd.BaseURL(), int64(lc.UserIDs[0]))
		if err != nil {
			fatal(fmt.Errorf("login on node %d: %w", i+1, err))
		}
		tokens[i] = tok
	}
	var uploadBytes atomic.Int64
	var uploadErrs atomic.Uint64
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.workers)
	for d := 0; d < p.datasets; d++ {
		ids[d] = storage.DatasetID(fmt.Sprintf("up-%03d", d+1))
		buf := make([]byte, p.bytesPer)
		rand.New(rand.NewSource(p.seed + int64(d)*7919)).Read(buf)
		payloads[d] = buf
		wg.Add(1)
		sem <- struct{}{}
		go func(d int) {
			defer wg.Done()
			defer func() { <-sem }()
			origin := d % len(lc.Nodes)
			_, err := cdnclient.Upload(ctx, cdnclient.TransferOptions{
				Client:    client,
				Endpoints: []string{lc.Nodes[origin].BaseURL()},
				Token:     tokens[origin],
				Stripes:   p.stripes,
			}, ids[d], lc.Config.Group, bytes.NewReader(payloads[d]), p.bytesPer)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scdn-loadgen: upload %s: %v\n", ids[d], err)
				uploadErrs.Add(1)
				return
			}
			uploadBytes.Add(p.bytesPer)
		}(d)
	}
	wg.Wait()
	if n := uploadErrs.Load(); n > 0 {
		fatal(fmt.Errorf("%d of %d uploads failed", n, p.datasets))
	}
	// ReplicationStatus (the post-churn floor check) walks DatasetIDs;
	// in ingest mode the uploads define that set.
	lc.DatasetIDs = ids
	fmt.Printf("uploaded %d datasets (%.1f MB) in %.2fs\n",
		p.datasets, float64(uploadBytes.Load())/(1<<20), time.Since(start).Seconds())

	// Phase 2 — verified fetches under churn. Every download is striped
	// across live edges and checked block-by-block against the dataset's
	// manifest; availability gaps while churn is active are retried, a
	// digest mismatch never is — corrupt bytes fail the run immediately.
	var churnRun *server.ChurnRun
	var churnEvents []server.ChurnEvent
	if p.churn != "" {
		spec, err := server.ParseChurnSpec(p.churn)
		if err != nil {
			fatal(err)
		}
		churnEvents = spec.Events(p.nodes, p.seed)
		churnRun = server.StartChurn(lc, churnEvents)
		fmt.Printf("churn schedule: %d events (%s)\n", len(churnEvents), p.churn)
	}
	var pace time.Duration
	if churnRun != nil && len(churnEvents) > 0 && p.fetches > 0 {
		span := churnEvents[len(churnEvents)-1].At + 2*time.Second
		pace = span * time.Duration(p.workers) / time.Duration(p.fetches)
	}
	const (
		retryLimit = 60
		retryDelay = 250 * time.Millisecond
		churnGrace = 10 * time.Second
	)
	liveURLs := func() []string {
		var urls []string
		for _, nd := range lc.Nodes {
			if nd.Running() {
				urls = append(urls, nd.BaseURL())
			}
		}
		if len(urls) == 0 {
			return lc.URLs()
		}
		return urls
	}
	var (
		fetched, failed, mismatches, excused atomic.Uint64
		next                                 atomic.Int64
	)
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed + 1000 + int64(w)))
			for {
				i := next.Add(1)
				if i > int64(p.fetches) {
					return
				}
				if pace > 0 {
					time.Sleep(pace)
				}
				d := rng.Intn(p.datasets)
				man, ok := lc.Manifests.Get(ids[d])
				if !ok {
					fmt.Fprintf(os.Stderr, "scdn-loadgen: no manifest for %s\n", ids[d])
					failed.Add(1)
					continue
				}
				opts := cdnclient.TransferOptions{Client: client,
					Token: tokens[w%len(tokens)], Stripes: p.stripes}
				var err error
				for attempt := 0; ; attempt++ {
					opts.Endpoints = liveURLs()
					_, err = cdnclient.Download(ctx, opts, man, cdnclient.Discard)
					if err == nil {
						break
					}
					if errors.Is(err, ingest.ErrDigestMismatch) {
						mismatches.Add(1)
						break
					}
					if churnRun == nil || attempt >= retryLimit || !churnRun.Active(churnGrace) {
						break
					}
					excused.Add(1)
					time.Sleep(retryDelay)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "scdn-loadgen: fetch %s: %v\n", ids[d], err)
					failed.Add(1)
					continue
				}
				fetched.Add(1)
			}
		}(w)
	}
	wg.Wait()

	// Phase 3 — repair settles. Opaque datasets can only be restored by
	// byte copy, so the floor coming back IS the byte-transfer proof.
	var churnSum server.ChurnSummary
	repairOK := true
	if churnRun != nil {
		churnRun.Wait()
		churnSum = churnRun.Summary()
		want := replicationTarget
		if live := lc.LiveNodes(); live < want {
			want = live
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			bad := 0
			for _, st := range lc.ReplicationStatus() {
				if st.Live < want {
					bad++
				}
			}
			if bad == 0 {
				fmt.Printf("post-churn repair: every dataset at >= %d live replicas\n", want)
				break
			}
			if time.Now().After(deadline) {
				fmt.Printf("post-churn repair incomplete: %d datasets below %d live replicas\n", bad, want)
				repairOK = false
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
	}

	// Phase 4 — digest reconciliation: download every dataset once more
	// (stripes spread across whatever edges survived) and compare the
	// reassembled bytes to the original upload. This closes the loop the
	// manifests only promise: the cluster still holds the user's bytes.
	reconcileErrs := 0
	for d := 0; d < p.datasets; d++ {
		man, ok := lc.Manifests.Get(ids[d])
		if !ok {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: reconcile %s: manifest lost\n", ids[d])
			reconcileErrs++
			continue
		}
		dst := make([]byte, p.bytesPer)
		_, err := cdnclient.Download(ctx, cdnclient.TransferOptions{
			Client: client, Endpoints: liveURLs(), Token: tokens[0], Stripes: p.stripes,
		}, man, &memWriterAt{b: dst})
		if err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: reconcile %s: %v\n", ids[d], err)
			if errors.Is(err, ingest.ErrDigestMismatch) {
				mismatches.Add(1)
			}
			reconcileErrs++
			continue
		}
		if !bytes.Equal(dst, payloads[d]) {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: reconcile %s: bytes diverge from upload\n", ids[d])
			mismatches.Add(1)
			reconcileErrs++
		}
	}
	elapsed := time.Since(start)

	after := scrapeAll(ctx, lc.URLs())
	delta := diffScrapes(before, after)

	fmt.Printf("\ningest run: %d uploads, %d verified fetches (%d stripes), %d reconciled in %.2fs\n",
		p.datasets, fetched.Load(), p.stripes, p.datasets-reconcileErrs, elapsed.Seconds())
	fmt.Printf("cluster delta: uploads=%d upload-bytes=%d digest-rejects=%d repair-copies=%d copy-bytes=%d regenerated=%d restored=%d\n",
		delta["scdn_ingest_uploads_total"], delta["scdn_ingest_upload_bytes_total"],
		delta["scdn_ingest_digest_rejects_total"], delta["scdn_ingest_repair_copies_total"],
		delta["scdn_ingest_repair_copy_bytes_total"], delta["scdn_ingest_repair_regenerated_total"],
		delta["scdn_repair_replicas_restored_total"])
	if churnRun != nil {
		fmt.Printf("churn: kills=%d restarts=%d excused-retries=%d\n",
			churnSum.Kills, churnSum.Restarts, excused.Load())
	}

	// Gates. A run is green only when every upload landed, every fetch
	// and reconciliation verified, no opaque repair fell back to the
	// generator, and the exposition agrees with what the client did.
	ok := repairOK
	if failed.Load() != 0 {
		fmt.Printf("gate: %d failed fetches\n", failed.Load())
		ok = false
	}
	if mismatches.Load() != 0 {
		fmt.Printf("gate: %d digest mismatches\n", mismatches.Load())
		ok = false
	}
	if reconcileErrs != 0 {
		fmt.Printf("gate: %d datasets failed reconciliation\n", reconcileErrs)
		ok = false
	}
	if got := delta["scdn_ingest_uploads_total"]; got != uint64(p.datasets) {
		fmt.Printf("gate: cluster counted %d uploads, client made %d\n", got, p.datasets)
		ok = false
	}
	if got := delta["scdn_ingest_upload_bytes_total"]; got != uint64(p.datasets)*uint64(p.bytesPer) {
		fmt.Printf("gate: cluster counted %d upload bytes, client sent %d\n",
			got, uint64(p.datasets)*uint64(p.bytesPer))
		ok = false
	}
	if got := delta["scdn_ingest_repair_regenerated_total"]; got != 0 {
		fmt.Printf("gate: %d opaque repairs regenerated bytes (must be byte copies)\n", got)
		ok = false
	}
	if churnRun != nil {
		for _, e := range churnSum.Errs {
			fmt.Println("churn event error:", e)
			ok = false
		}
		if churnSum.Kills > 0 && delta["scdn_ingest_repair_copies_total"] == 0 {
			fmt.Println("gate: churn killed holders but no repair-by-copy ran")
			ok = false
		}
	}

	if p.benchOut != "" {
		if err := loadharness.WriteRecord(p.benchOut, benchIngestRecord{
			SchemaVersion: loadharness.SchemaVersion,
			Host:          loadharness.CurrentHost(),
			Mode:          "ingest", Edges: p.nodes, Workers: p.workers,
			Datasets: p.datasets, BytesPerDataset: p.bytesPer,
			Stripes: p.stripes, Fetches: fetched.Load(),
			ElapsedSeconds:   elapsed.Seconds(),
			Failed:           failed.Load(),
			DigestMismatches: mismatches.Load(),
			Uploads:          delta["scdn_ingest_uploads_total"],
			UploadBytes:      delta["scdn_ingest_upload_bytes_total"],
			RepairCopies:     delta["scdn_ingest_repair_copies_total"],
			RepairCopyBytes:  delta["scdn_ingest_repair_copy_bytes_total"],
			RepairRegen:      delta["scdn_ingest_repair_regenerated_total"],
			Churn:            churnBenchInfo(churnRun != nil, p.churn, churnSum, excused.Load(), delta),
			Reconciled:       ok,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: bench-out: %v\n", err)
			ok = false
		} else {
			fmt.Printf("benchmark record: %s\n", p.benchOut)
		}
	}
	if ok {
		fmt.Println("ingest reconciliation: OK")
	} else {
		os.Exit(1)
	}
}

// benchIngestRecord is the BENCH_ingest.json schema: the live-ingest
// data plane's acceptance record across PRs.
type benchIngestRecord struct {
	SchemaVersion    int                      `json:"schema_version"`
	Host             loadharness.Host         `json:"host"`
	Mode             string                   `json:"mode"`
	Edges            int                      `json:"edges"`
	Workers          int                      `json:"workers"`
	Datasets         int                      `json:"datasets"`
	BytesPerDataset  int64                    `json:"bytes_per_dataset"`
	Stripes          int                      `json:"stripes"`
	Fetches          uint64                   `json:"fetches"`
	ElapsedSeconds   float64                  `json:"elapsed_seconds"`
	Failed           uint64                   `json:"failed"`
	DigestMismatches uint64                   `json:"digest_mismatches"`
	Uploads          uint64                   `json:"uploads"`
	UploadBytes      uint64                   `json:"upload_bytes"`
	RepairCopies     uint64                   `json:"repair_copies"`
	RepairCopyBytes  uint64                   `json:"repair_copy_bytes"`
	RepairRegen      uint64                   `json:"repair_regenerated"`
	Churn            *loadharness.ChurnRecord `json:"churn,omitempty"`
	Reconciled       bool                     `json:"reconciled"`
}

// memWriterAt is an in-memory io.WriterAt over a pre-sized buffer.
type memWriterAt struct {
	mu sync.Mutex
	b  []byte
}

func (w *memWriterAt) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(w.b)) {
		return 0, fmt.Errorf("write [%d, %d) outside %d-byte buffer", off, off+int64(len(p)), len(w.b))
	}
	copy(w.b[off:], p)
	return len(p), nil
}
