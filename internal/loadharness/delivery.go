package loadharness

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"scdn/internal/metrics"
)

// sweep runs the options' open-loop rate ladder over do, printing each
// step, and returns the per-rate results with their aggregate.
func (e *env) sweep(ctx context.Context, do func(context.Context) (int64, error)) (*sweepResult, error) {
	cfg := SweepConfig{Rates: e.Rates, Duration: e.Duration, MaxConns: e.MaxConns, Seed: e.Seed,
		Settle: 200 * time.Millisecond,
		Progress: func(r RateResult) {
			fmt.Printf("  rate %7.1f: achieved %7.1f req/s %8.1f MB/s, %d issued, %d failed, p50 %.2fms p99 %.2fms\n",
				r.OfferedRPS, r.AchievedRPS, r.AchievedMBps, r.Issued, r.Failed, r.LatencyMS.P50, r.LatencyMS.P99)
		},
	}
	fmt.Printf("scdn-loadgen: open-loop sweep: rates %v req/s × %s each (pool %d, seed %d)\n",
		e.Rates, e.Duration, e.MaxConns, e.Seed)
	start := time.Now()
	results, err := Sweep(ctx, cfg, do)
	if err != nil {
		return nil, err
	}
	s := &sweepResult{elapsed: time.Since(start), openLoop: NewOpenLoop(cfg, results)}
	for _, r := range results {
		s.issued += r.Issued
		s.failed += r.Failed
		s.bytes += r.Bytes
		s.lat.Merge(r.Hist)
		s.mbps.Merge(r.MBpsHist)
	}
	s.knee = results[Knee(results)]
	fmt.Printf("knee: offered %.1f req/s, achieved %.1f req/s, %.1f MB/s, p99 %.2fms; %d issued, %d failed in %.2fs\n",
		s.knee.OfferedRPS, s.knee.AchievedRPS, s.knee.AchievedMBps, s.knee.LatencyMS.P99,
		s.issued, s.failed, s.elapsed.Seconds())
	return s, nil
}

// sweepResult aggregates an open-loop sweep.
type sweepResult struct {
	issued, failed, bytes uint64
	elapsed               time.Duration
	lat, mbps             metrics.Histogram
	knee                  RateResult
	openLoop              *OpenLoop
}

// deliveryMix fires whole, verified GETs round-robin over datasets and
// edges on the open-loop schedule: BENCH_delivery.json's request knee.
func deliveryMix(ctx context.Context, e *env) (outcome, error) {
	var rr atomic.Uint64
	s, err := e.sweep(ctx, func(ctx context.Context) (int64, error) {
		i := rr.Add(1)
		ds := e.datasets[i%uint64(len(e.datasets))]
		j := i % uint64(len(e.urls))
		n, err := fetch(ctx, e.client, e.urls[j], e.tokens[j], ds, e.Bytes, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: fetch %s: %v\n", ds, err)
		}
		return n, err
	})
	return (*deliveryOutcome)(s), err
}

type deliveryOutcome sweepResult

// reconcile: every request the schedule fired must appear in the
// cluster's exposition — an open-loop run with unexplained failures or
// missing samples is a broken measurement, not a slow one.
func (o *deliveryOutcome) reconcile(d Counters) []string {
	var m mismatches
	m.check(o.failed == 0, "%d requests failed", o.failed)
	m.check(d["scdn_fetch_requests_total"] == o.issued,
		"cluster saw %d fetches, schedule fired %d", d["scdn_fetch_requests_total"], o.issued)
	m.check(d["scdn_fetch_latency_seconds_count"] == o.issued,
		"cluster recorded %d latency samples, want %d", d["scdn_fetch_latency_seconds_count"], o.issued)
	m.check(d["scdn_fetch_failures_total"] == 0,
		"cluster recorded %d fetch failures", d["scdn_fetch_failures_total"])
	return m
}

func (o *deliveryOutcome) record(e *env, d Counters, reconciled bool) any {
	return DeliveryRecord{
		SchemaVersion: SchemaVersion,
		Host:          CurrentHost(),
		Mode:          "open-loop",
		Requests:      int(o.issued),
		Edges:         len(e.urls), Datasets: e.Datasets, BytesPerDataset: e.Bytes,
		PayloadMode:    e.payloadMode(),
		ElapsedSeconds: o.elapsed.Seconds(),
		ThroughputRPS:  o.knee.AchievedRPS,
		ThroughputMBps: float64(o.bytes) / (1 << 20) / o.elapsed.Seconds(),
		LatencyMS:      o.lat.LatencyMS(),
		Failed:         o.failed,
		RangeRequests:  d["scdn_range_requests_total"],
		Reconciled:     reconciled,
		OpenLoop:       o.openLoop,
	}
}
