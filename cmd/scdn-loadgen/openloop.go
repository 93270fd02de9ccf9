package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"scdn/internal/loadharness"
	"scdn/internal/server"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

// openLoopParams parameterizes an open-loop sweep (scdn-loadgen
// -openloop): requests fire on a seeded arrival schedule regardless of
// how many are still in flight, and every latency is measured from the
// request's intended start time — the coordinated-omission-safe number
// a real client population would experience.
type openLoopParams struct {
	nodes    int
	targets  string
	datasets int
	bytesPer int64
	rates    []float64
	duration time.Duration
	maxConns int
	dist     string
	seed     int64
	pull     bool
	verify   bool
	store    string
	benchOut string
}

// parseRates parses the -rates ladder ("200,400,800").
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad arrival rate %q in -rates (want positive req/s)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rates is empty")
	}
	return out, nil
}

// runOpenLoop sweeps the arrival-rate ladder against the cluster,
// locates the latency-vs-throughput knee, reconciles its own counts
// against /metrics, and writes a schema-v2 BENCH record with the full
// curve. Exits non-zero on any failed request or accounting mismatch.
func runOpenLoop(p openLoopParams) {
	var (
		urls       []string
		datasetIDs []storage.DatasetID
		userIDs    []int64
		lc         *server.LocalCluster
	)
	payloadMode := p.store
	if p.targets == "" {
		var err error
		lc, err = server.StartLocalCluster(server.ClusterConfig{
			Nodes: p.nodes, Users: 8, Datasets: p.datasets,
			DatasetBytes: p.bytesPer, Seed: p.seed, PullThrough: p.pull,
			StoreMode: p.store,
			Sweep:     server.SweeperConfig{ReplicationTarget: 2},
		})
		if err != nil {
			fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = lc.Shutdown(ctx)
		}()
		urls = lc.URLs()
		datasetIDs = lc.DatasetIDs
		for _, u := range lc.UserIDs {
			userIDs = append(userIDs, int64(u))
		}
		fmt.Printf("scdn-loadgen: started %d-node in-process cluster on loopback TCP (store: %s)\n",
			p.nodes, p.store)
	} else {
		payloadMode = "targets"
		urls = strings.Split(p.targets, ",")
		for d := 0; d < p.datasets; d++ {
			datasetIDs = append(datasetIDs, storage.DatasetID(fmt.Sprintf("ds-%03d", d+1)))
		}
		userIDs = []int64{101}
	}

	ctx := context.Background()
	client := transport.NewClient(30 * time.Second)
	tokens := make([]string, len(urls))
	for i, base := range urls {
		tok, err := loginHTTP(ctx, client, base, userIDs[i%len(userIDs)])
		if err != nil {
			fatal(fmt.Errorf("login on %s: %w", base, err))
		}
		tokens[i] = tok
	}

	// Warm every edge once per dataset so the sweep measures the serving
	// hot path, not first-touch replica materialization.
	for i, base := range urls {
		for _, ds := range datasetIDs {
			if _, err := fetchHTTP(ctx, client, base, tokens[i], ds, p.bytesPer, false); err != nil {
				fatal(fmt.Errorf("warmup fetch %s from %s: %w", ds, base, err))
			}
		}
	}

	before := scrapeAll(ctx, urls)

	var (
		rr        atomic.Uint64
		bytesRead atomic.Int64
	)
	do := func(ctx context.Context) error {
		i := rr.Add(1)
		ds := datasetIDs[i%uint64(len(datasetIDs))]
		j := int(i % uint64(len(urls)))
		n, err := fetchHTTP(ctx, client, urls[j], tokens[j], ds, p.bytesPer, p.verify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: fetch %s: %v\n", ds, err)
			return err
		}
		bytesRead.Add(n)
		return nil
	}

	fmt.Printf("scdn-loadgen: open-loop sweep: rates %v req/s × %s each (dist %s, pool %d, seed %d)\n",
		p.rates, p.duration, p.dist, p.maxConns, p.seed)
	cfg := loadharness.SweepConfig{
		Rates: p.rates, Duration: p.duration, MaxConns: p.maxConns,
		Dist: p.dist, Seed: p.seed,
		Settle: 200 * time.Millisecond,
		Progress: func(r loadharness.RateResult) {
			fmt.Printf("  rate %7.0f: achieved %7.1f req/s, %d issued, %d failed, p50 %.2fms p99 %.2fms max %.2fms\n",
				r.OfferedRPS, r.AchievedRPS, r.Issued, r.Failed,
				r.LatencyMS.P50, r.LatencyMS.P99, r.LatencyMS.Max)
		},
	}
	start := time.Now()
	results, err := loadharness.Sweep(ctx, cfg, do)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	after := scrapeAll(ctx, urls)
	delta := diffScrapes(before, after)

	var issued, failed uint64
	var agg loadharness.Hist
	for _, r := range results {
		issued += r.Issued
		failed += r.Failed
		if r.Hist != nil {
			agg.Merge(r.Hist)
		}
	}
	kneeIdx := loadharness.Knee(results)
	knee := results[kneeIdx]
	mb := float64(bytesRead.Load()) / (1 << 20)

	fmt.Printf("\nopen loop over %d edges: %d requests across %d rates in %.2fs (%.1f MB served)\n",
		len(urls), issued, len(results), elapsed.Seconds(), mb)
	fmt.Printf("knee: offered %.0f req/s, achieved %.1f req/s, p99 %.2fms\n",
		knee.OfferedRPS, knee.AchievedRPS, knee.LatencyMS.P99)
	fmt.Printf("intended-start latency ms (all rates): mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f\n",
		agg.Mean()*1000, agg.Quantile(0.50)*1000, agg.Quantile(0.95)*1000, agg.Quantile(0.99)*1000)
	fmt.Printf("failed requests: %d\n", failed)

	cacheHits := delta["scdn_payload_cache_hits_total"]
	cacheMisses := delta["scdn_payload_cache_misses_total"]
	fmt.Printf("cluster delta: fetch=%d failures=%d local=%d peer=%d origin=%d latency-samples=%d\n",
		delta["scdn_fetch_requests_total"], delta["scdn_fetch_failures_total"],
		delta["scdn_local_hits_total"], delta["scdn_peer_hits_total"],
		delta["scdn_origin_fetches_total"], delta["scdn_fetch_latency_seconds_count"])

	// Reconciliation: every request the schedule fired must appear in the
	// cluster's exposition — an open-loop run with unexplained failures or
	// missing samples is a broken measurement, not a slow one.
	ok := true
	if failed != 0 {
		ok = false
	}
	if delta["scdn_fetch_requests_total"] != issued {
		fmt.Printf("metrics mismatch: cluster saw %d fetches, schedule fired %d\n",
			delta["scdn_fetch_requests_total"], issued)
		ok = false
	}
	if delta["scdn_fetch_latency_seconds_count"] != issued {
		fmt.Printf("metrics mismatch: cluster recorded %d latency samples, want %d\n",
			delta["scdn_fetch_latency_seconds_count"], issued)
		ok = false
	}
	if delta["scdn_fetch_failures_total"] != 0 {
		fmt.Printf("metrics mismatch: cluster recorded %d fetch failures\n",
			delta["scdn_fetch_failures_total"])
		ok = false
	}

	if p.benchOut != "" {
		rec := loadharness.DeliveryRecord{
			SchemaVersion: loadharness.SchemaVersion,
			Host:          loadharness.CurrentHost(),
			Mode:          "open-loop",
			Requests:      int(issued),
			Edges:         len(urls), Datasets: p.datasets, BytesPerDataset: p.bytesPer,
			PayloadMode:    payloadMode,
			ElapsedSeconds: elapsed.Seconds(),
			ThroughputRPS:  knee.AchievedRPS,
			ThroughputMBps: mb / elapsed.Seconds(),
			LatencyMS:      agg.LatencyMS(),
			Failed:         failed,
			CacheHits:      cacheHits,
			CacheMisses:    cacheMisses,
			CacheHitRate:   loadharness.HitRate(cacheHits, cacheMisses),
			RangeRequests:  delta["scdn_range_requests_total"],
			Reconciled:     ok,
			OpenLoop:       loadharness.NewOpenLoop(cfg, results),
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
