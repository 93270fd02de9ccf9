package loadharness

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
	"scdn/internal/storage"
)

// ingestMix drives the live-user data plane end to end: upload opaque
// (non-regenerable) datasets through PUT /v1/datasets with origin
// affinity, fetch them verified and striped under the optional churn
// schedule, wait for repair-by-copy to restore the replication floor,
// then download every dataset once more and compare it to its upload.
// Opaque datasets cannot be regenerated, so a green run proves every
// re-replication moved real verified bytes between peers.
func ingestMix(ctx context.Context, e *env) (outcome, error) {
	start := time.Now()
	o := &ingestOutcome{datasets: uint64(e.Datasets), bytes: uint64(e.Bytes)}
	payloads := make([][]byte, e.Datasets)
	ids := make([]storage.DatasetID, e.Datasets)
	opts := func(endpoints []string, tok string) cdnclient.TransferOptions {
		return cdnclient.TransferOptions{Client: e.client, Endpoints: endpoints, Token: tok, Stripes: e.Stripes}
	}

	// Upload. Dataset d's bytes come from a seeded generator the serving
	// plane has no access to; its origin is edge d%N, which becomes the
	// first holder.
	var uploadErrs atomic.Uint64
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.Workers)
	for d := range payloads {
		ids[d] = storage.DatasetID(fmt.Sprintf("up-%03d", d+1))
		payloads[d] = make([]byte, e.Bytes)
		rand.New(rand.NewSource(e.Seed + int64(d)*7919)).Read(payloads[d])
		wg.Add(1)
		sem <- struct{}{}
		go func(d int) {
			defer wg.Done()
			defer func() { <-sem }()
			origin := d % len(e.urls)
			_, err := cdnclient.Upload(ctx, opts(e.urls[origin:origin+1], e.tokens[origin]),
				ids[d], e.lc.Config.Group, bytes.NewReader(payloads[d]), e.Bytes)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scdn-loadgen: upload %s: %v\n", ids[d], err)
				uploadErrs.Add(1)
			}
		}(d)
	}
	wg.Wait()
	if n := uploadErrs.Load(); n > 0 {
		return nil, fmt.Errorf("%d of %d uploads failed", n, e.Datasets)
	}
	// ReplicationStatus (the post-churn floor check) walks DatasetIDs;
	// here the uploads define that set.
	e.lc.DatasetIDs = ids
	fmt.Printf("uploaded %d datasets in %.2fs\n", e.Datasets, time.Since(start).Seconds())

	// Verified fetches under churn: every download is checked block by
	// block against the dataset's manifest.
	c := startChurner(e)
	var next atomic.Int64
	var fetched, failed atomic.Uint64
	for w := 0; w < e.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.Seed + 1000 + int64(w)))
			for next.Add(1) <= int64(e.Requests) {
				time.Sleep(c.pace)
				id := ids[rng.Intn(len(ids))]
				err := c.do(func(live []string) error {
					man, ok := e.lc.Manifests.Get(id)
					if !ok {
						return fmt.Errorf("no manifest for %s", id)
					}
					_, err := cdnclient.Download(ctx, opts(live, e.tokens[w%len(e.tokens)]), man, cdnclient.Discard)
					return err
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "scdn-loadgen: fetch %s: %v\n", id, err)
					failed.Add(1)
					o.noteMismatch(err)
					continue
				}
				fetched.Add(1)
			}
		}(w)
	}
	wg.Wait()
	o.churn = c.settle()

	// Digest reconciliation: download every dataset again, striped
	// across whatever edges survived, and compare the bytes with the
	// upload — the cluster still holds the user's bytes, not only their
	// manifests.
	for d, id := range ids {
		man, ok := e.lc.Manifests.Get(id)
		dst := &memWriterAt{b: make([]byte, e.Bytes)}
		err := fmt.Errorf("manifest lost")
		if ok {
			_, err = cdnclient.Download(ctx, opts(c.live(), e.tokens[0]), man, dst)
		}
		if err == nil && !bytes.Equal(dst.b, payloads[d]) {
			err = fmt.Errorf("bytes diverge from upload: %w", ingest.ErrDigestMismatch)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: reconcile %s: %v\n", id, err)
			o.unreconciled++
			o.noteMismatch(err)
		}
	}
	o.fetched, o.failed, o.elapsed = fetched.Load(), failed.Load(), time.Since(start)
	fmt.Printf("ingest: %d uploads, %d verified fetches, %d of %d datasets reconciled in %.2fs\n",
		e.Datasets, o.fetched, uint64(e.Datasets)-o.unreconciled, e.Datasets, o.elapsed.Seconds())
	return o, nil
}

type ingestOutcome struct {
	datasets, bytes uint64 // uploaded: count, and bytes each
	fetched, failed uint64
	mismatches      atomic.Uint64 // digest mismatches, fetch or reconcile
	unreconciled    uint64        // datasets whose final download failed
	elapsed         time.Duration
	churn           *churnResult
}

// noteMismatch counts a failed download that was a digest mismatch.
func (o *ingestOutcome) noteMismatch(err error) {
	if errors.Is(err, ingest.ErrDigestMismatch) {
		o.mismatches.Add(1)
	}
}

// reconcile: every upload landed and was counted byte for byte, every
// fetch and final download verified, no opaque repair fell back to the
// generator, and churn that killed holders forced repair by copy.
func (o *ingestOutcome) reconcile(d Counters) []string {
	var m mismatches
	m.check(o.failed == 0, "%d failed fetches", o.failed)
	m.check(o.mismatches.Load() == 0, "%d digest mismatches", o.mismatches.Load())
	m.check(o.unreconciled == 0, "%d datasets failed reconciliation", o.unreconciled)
	m.check(d["scdn_ingest_uploads_total"] == o.datasets,
		"cluster counted %d uploads, client made %d", d["scdn_ingest_uploads_total"], o.datasets)
	m.check(d["scdn_ingest_upload_bytes_total"] == o.datasets*o.bytes,
		"cluster counted %d upload bytes, client sent %d", d["scdn_ingest_upload_bytes_total"], o.datasets*o.bytes)
	m.check(d["scdn_ingest_repair_regenerated_total"] == 0,
		"%d opaque repairs regenerated bytes (must be byte copies)", d["scdn_ingest_repair_regenerated_total"])
	o.churn.check(&m)
	m.check(o.churn == nil || o.churn.sum.Kills == 0 || d["scdn_ingest_repair_copies_total"] > 0,
		"churn killed holders but no repair-by-copy ran")
	return m
}

func (o *ingestOutcome) record(e *env, d Counters, reconciled bool) any {
	return IngestRecord{
		SchemaVersion: SchemaVersion,
		Host:          CurrentHost(),
		Mode:          "ingest", Edges: e.Nodes, Workers: e.Workers,
		Datasets: e.Datasets, BytesPerDataset: e.Bytes,
		Stripes: e.Stripes, Fetches: o.fetched,
		ElapsedSeconds:   o.elapsed.Seconds(),
		Failed:           o.failed,
		DigestMismatches: o.mismatches.Load(),
		Uploads:          d["scdn_ingest_uploads_total"],
		UploadBytes:      d["scdn_ingest_upload_bytes_total"],
		RepairCopies:     d["scdn_ingest_repair_copies_total"],
		RepairCopyBytes:  d["scdn_ingest_repair_copy_bytes_total"],
		RepairRegen:      d["scdn_ingest_repair_regenerated_total"],
		Churn:            o.churn.record(d),
		Reconciled:       reconciled,
	}
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
