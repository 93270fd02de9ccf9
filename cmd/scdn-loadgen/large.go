package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"scdn/internal/loadharness"
	"scdn/internal/server"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

// largeParams parameterizes a large-object run (scdn-loadgen -large):
// an open-loop sweep whose request population is a seeded mix of
// whole-object GETs, ranged window fetches, and segment walks over
// datasets big enough to be stored and served segmented. The number
// that matters here is bytes per second, not requests per second — the
// sweep's knee step's wall-clock MB/s is what BENCH_large.json ratchets.
type largeParams struct {
	nodes      int
	datasets   int
	bytesPer   int64
	segSize    int64
	storeQuota int64
	rates      []float64
	duration   time.Duration
	maxConns   int
	dist       string
	seed       int64
	verify     bool
	benchOut   string
}

// Request flavors in the seeded mix.
const (
	mixWhole = iota
	mixRanged
	mixSegmentWalk
)

// largeMixEntry is one precomputed request: flavor, dataset, and (for
// ranged fetches) a segment-size window's offset. Precomputing the
// table keeps the open-loop hot path free of RNG state and makes the
// same seed replay the same byte pattern exactly.
type largeMixEntry struct {
	flavor int
	ds     int
	off    int64
}

// buildLargeMix deals the request mix deterministically: 20% whole
// objects, 50% ranged windows, 30% segment walks — reads dominated by
// partial access, exactly the pattern segmentation exists for.
func buildLargeMix(seed int64, n, datasets int, bytesPer, segSize int64) []largeMixEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]largeMixEntry, n)
	for i := range out {
		e := largeMixEntry{ds: rng.Intn(datasets)}
		switch p := rng.Intn(10); {
		case p < 2:
			e.flavor = mixWhole
		case p < 7:
			e.flavor = mixRanged
			// A segment-size window at an arbitrary (unaligned) offset:
			// the serve path must stitch it from up to two segments.
			if max := bytesPer - segSize; max > 0 {
				e.off = rng.Int63n(max + 1)
			}
		default:
			e.flavor = mixSegmentWalk
		}
		out[i] = e
	}
	return out
}

// runLarge drives the large-object byte-throughput bench: start a
// dir-store cluster sized so every dataset crosses the segment
// threshold, warm each edge once per dataset (materializing segments),
// sweep the arrival ladder with the seeded mix, locate the knee,
// reconcile request counts against /metrics, and write BENCH_large.json
// with the store counters that prove the segmented path ran. Exits
// non-zero on any failed request or accounting mismatch.
func runLarge(p largeParams) {
	if p.bytesPer < p.segSize {
		fatal(fmt.Errorf("-large needs -bytes (%d) >= segment size (%d): small datasets never segment", p.bytesPer, p.segSize))
	}
	segsPer := storage.SegmentCount(p.bytesPer, p.segSize)
	lc, err := server.StartLocalCluster(server.ClusterConfig{
		Nodes: p.nodes, Users: 8, Datasets: p.datasets,
		DatasetBytes: p.bytesPer, Seed: p.seed, PullThrough: true,
		StoreMode:  server.StoreModeDir,
		StoreQuota: p.storeQuota,
		// Threshold at the segment size: every dataset in this run is
		// stored and served segmented.
		SegmentSize: p.segSize, SegmentThreshold: p.segSize,
		Sweep: server.SweeperConfig{ReplicationTarget: 2},
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = lc.Shutdown(ctx)
	}()
	urls := lc.URLs()
	datasetIDs := lc.DatasetIDs
	fmt.Printf("scdn-loadgen: started %d-node dir-store cluster: %d datasets × %d MiB, %d×%d MiB segments each\n",
		p.nodes, p.datasets, p.bytesPer>>20, segsPer, p.segSize>>20)

	ctx := context.Background()
	client := transport.NewClient(60 * time.Second)
	tokens := make([]string, len(urls))
	for i, base := range urls {
		tok, err := loginHTTP(ctx, client, base, int64(lc.UserIDs[i%len(lc.UserIDs)]))
		if err != nil {
			fatal(fmt.Errorf("login on %s: %w", base, err))
		}
		tokens[i] = tok
	}

	// Warm every edge once per dataset. The first whole-object pass
	// materializes segments (and, on non-owner edges, adopts them over
	// the peer segment pull-through), so the sweep measures the warm
	// serve path; the scrape below excludes all warmup traffic.
	for i, base := range urls {
		for _, ds := range datasetIDs {
			if _, err := fetchHTTP(ctx, client, base, tokens[i], ds, p.bytesPer, false); err != nil {
				fatal(fmt.Errorf("warmup fetch %s from %s: %w", ds, base, err))
			}
		}
	}

	before := scrapeAll(ctx, urls)

	// The mix table is sized far past any plausible request count; the
	// counter wraps around it harmlessly if a sweep outruns it.
	mix := buildLargeMix(p.seed, 1<<16, len(datasetIDs), p.bytesPer, p.segSize)
	var (
		rr                     atomic.Uint64
		wholeN, rangedN, walkN atomic.Uint64
		segRequests            atomic.Uint64
	)
	do := func(ctx context.Context) (int64, error) {
		i := rr.Add(1)
		e := mix[i%uint64(len(mix))]
		ds := datasetIDs[e.ds]
		j := int(i % uint64(len(urls)))
		base, tok := urls[j], tokens[j]
		switch e.flavor {
		case mixWhole:
			wholeN.Add(1)
			n, err := fetchHTTP(ctx, client, base, tok, ds, p.bytesPer, p.verify)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scdn-loadgen: whole fetch %s: %v\n", ds, err)
			}
			return n, err
		case mixRanged:
			rangedN.Add(1)
			length := p.segSize
			if e.off+length > p.bytesPer {
				length = p.bytesPer - e.off
			}
			n, err := fetchRangeHTTP(ctx, client, base, tok, ds, e.off, length, p.verify)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scdn-loadgen: ranged fetch %s [%d,+%d): %v\n", ds, e.off, length, err)
			}
			return n, err
		default:
			walkN.Add(1)
			var total int64
			for seg := int64(0); seg < segsPer; seg++ {
				segRequests.Add(1)
				n, err := fetchSegmentHTTP(ctx, client, base, tok, ds, seg,
					seg*p.segSize, storage.SegmentExtent(p.bytesPer, p.segSize, seg), p.verify)
				total += n
				if err != nil {
					fmt.Fprintf(os.Stderr, "scdn-loadgen: segment %s/%d: %v\n", ds, seg, err)
					return total, err
				}
			}
			return total, nil
		}
	}

	fmt.Printf("scdn-loadgen: large-object sweep: rates %v req/s × %s each (dist %s, pool %d, seed %d)\n",
		p.rates, p.duration, p.dist, p.maxConns, p.seed)
	cfg := loadharness.SweepConfig{
		Rates: p.rates, Duration: p.duration, MaxConns: p.maxConns,
		Dist: p.dist, Seed: p.seed,
		Settle: 200 * time.Millisecond,
		Progress: func(r loadharness.RateResult) {
			fmt.Printf("  rate %6.1f: achieved %6.1f req/s %8.1f MB/s, %d issued, %d failed, p99 %.2fms\n",
				r.OfferedRPS, r.AchievedRPS, r.AchievedMBps, r.Issued, r.Failed, r.LatencyMS.P99)
		},
	}
	start := time.Now()
	results, err := loadharness.SweepBytes(ctx, cfg, do)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	after := scrapeAll(ctx, urls)
	delta := diffScrapes(before, after)

	var issued, failed, totalBytes uint64
	var agg, aggMBps loadharness.Hist
	for _, r := range results {
		issued += r.Issued
		failed += r.Failed
		totalBytes += r.Bytes
		if r.Hist != nil {
			agg.Merge(r.Hist)
		}
		if r.MBpsHist != nil {
			aggMBps.Merge(r.MBpsHist)
		}
	}
	kneeIdx := loadharness.Knee(results)
	knee := results[kneeIdx]

	fmt.Printf("\nlarge-object open loop over %d edges: %d requests (%d whole, %d ranged, %d walks) in %.2fs\n",
		len(urls), issued, wholeN.Load(), rangedN.Load(), walkN.Load(), elapsed.Seconds())
	fmt.Printf("knee: offered %.1f req/s, achieved %.1f req/s, sustained %.1f MB/s, p99 %.2fms\n",
		knee.OfferedRPS, knee.AchievedRPS, knee.AchievedMBps, knee.LatencyMS.P99)
	fmt.Printf("bytes moved: %.1f MB total (%.1f MB/s wall-clock across all rates)\n",
		float64(totalBytes)/1e6, float64(totalBytes)/1e6/elapsed.Seconds())
	fmt.Printf("failed requests: %d\n", failed)
	fmt.Printf("store delta: segmented-serves=%d segment-fetches=%d segment-pulls=%d fadvise-seq=%d fadvise-dontneed=%d materializations=%d (%.1f MB)\n",
		delta["scdn_segmented_serves_total"], delta["scdn_segment_fetch_requests_total"],
		delta["scdn_segment_pulls_total"], delta["scdn_store_fadvise_sequential_total"],
		delta["scdn_store_fadvise_dontneed_total"], delta["scdn_store_materialize_total"],
		float64(delta["scdn_store_materialize_bytes_total"])/1e6)

	// Reconciliation. Whole and ranged requests each hit /v1/fetch
	// exactly once (every edge serves locally after warmup: segments
	// re-materialize from the generator on eviction, never over a peer);
	// walks hit the segment endpoint once per segment. Any server-side
	// failure, or a peer segment hop after warmup, is an accounting bug.
	ok := true
	if failed != 0 {
		ok = false
	}
	if want := wholeN.Load() + rangedN.Load(); delta["scdn_fetch_requests_total"] != want {
		fmt.Printf("metrics mismatch: cluster saw %d fetches, mix issued %d whole+ranged\n",
			delta["scdn_fetch_requests_total"], want)
		ok = false
	}
	clientSegFetches := delta["scdn_segment_fetch_requests_total"] - delta["scdn_peer_segment_fetch_requests_total"]
	if clientSegFetches != segRequests.Load() {
		fmt.Printf("metrics mismatch: cluster saw %d client segment fetches, walks issued %d\n",
			clientSegFetches, segRequests.Load())
		ok = false
	}
	if delta["scdn_fetch_failures_total"] != 0 || delta["scdn_segment_fetch_failures_total"] != 0 {
		fmt.Printf("metrics mismatch: cluster recorded %d fetch / %d segment-fetch failures\n",
			delta["scdn_fetch_failures_total"], delta["scdn_segment_fetch_failures_total"])
		ok = false
	}
	if delta["scdn_segmented_serves_total"] == 0 {
		fmt.Printf("metrics mismatch: the segmented serve path never ran (threshold misconfigured?)\n")
		ok = false
	}

	if p.benchOut != "" {
		rec := loadharness.LargeRecord{
			SchemaVersion: loadharness.SchemaVersion,
			Host:          loadharness.CurrentHost(),
			Mode:          "open-loop",
			Seed:          p.seed,
			Edges:         len(urls), Datasets: p.datasets, BytesPerDataset: p.bytesPer,
			SegmentSize: p.segSize,
			StoreQuota:  lc.Config.StoreQuota,
			Mix: loadharness.LargeMix{
				Whole: wholeN.Load(), Ranged: rangedN.Load(), SegmentWalk: walkN.Load(),
			},
			TotalBytes:        totalBytes,
			ElapsedSeconds:    elapsed.Seconds(),
			SustainedMBps:     knee.AchievedMBps,
			LatencyMS:         agg.LatencyMS(),
			RequestMBps:       aggMBps.Digest(),
			Failed:            failed,
			SegmentedServes:   delta["scdn_segmented_serves_total"],
			SegmentFetches:    delta["scdn_segment_fetch_requests_total"],
			SegmentPulls:      delta["scdn_segment_pulls_total"],
			FadviseSequential: delta["scdn_store_fadvise_sequential_total"],
			FadviseDontNeed:   delta["scdn_store_fadvise_dontneed_total"],
			Materializations:  delta["scdn_store_materialize_total"],
			MaterializedBytes: delta["scdn_store_materialize_bytes_total"],
			Reconciled:        ok,
			OpenLoop:          loadharness.NewOpenLoop(cfg, results),
		}
		if err := loadharness.WriteRecord(p.benchOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: bench-out: %v\n", err)
			ok = false
		} else {
			fmt.Printf("benchmark record: %s\n", p.benchOut)
		}
	}
	if ok {
		fmt.Println("metrics reconciliation: OK")
	} else {
		os.Exit(1)
	}
}

// fetchRangeHTTP fetches one byte window of a dataset with a Range
// header, expecting 206 and exactly length bytes.
func fetchRangeHTTP(ctx context.Context, client *http.Client, base, tok string,
	ds storage.DatasetID, off, length int64, verify bool) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/fetch/"+string(ds), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	req.Header.Set("Range", "bytes="+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(off+length-1, 10))
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		drain(resp.Body)
		return 0, fmt.Errorf("status %s (want 206)", resp.Status)
	}
	return readExpected(resp.Body, ds, off, length, verify)
}

// fetchSegmentHTTP fetches one segment via the segment endpoint,
// expecting 200 and the segment's exact extent.
func fetchSegmentHTTP(ctx context.Context, client *http.Client, base, tok string,
	ds storage.DatasetID, seg, off, extent int64, verify bool) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/fetch/"+string(ds)+"/segments/"+strconv.FormatInt(seg, 10), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	return readExpected(resp.Body, ds, off, extent, verify)
}

// readExpected drains exactly n payload bytes, verifying them against
// the deterministic generator when verify is set, and fails on any
// length mismatch either way.
func readExpected(r io.Reader, ds storage.DatasetID, off, n int64, verify bool) (int64, error) {
	if verify {
		return server.VerifyPayloadRange(r, ds, off, n)
	}
	got, err := io.Copy(io.Discard, r)
	if err != nil {
		return got, err
	}
	if got != n {
		return got, fmt.Errorf("body length %d, want %d", got, n)
	}
	return got, nil
}
