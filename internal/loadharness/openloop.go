// Package loadharness is the delivery plane's honest measurement kit
// and the whole of scdn-loadgen. Main runs one scenario — delivery,
// large, churn or ingest — through one path: set up the cluster, run
// the scenario's request mix, reconcile the client's counts against
// the cluster's /metrics delta, write one BENCH record. The package
// also holds the open-loop generator (requests fired on a seeded
// arrival schedule, regardless of how many are still in flight) with
// coordinated-omission-safe latency recording into the repo's shared
// metrics.Histogram, the churn injector, and the versioned BENCH
// record schema plus the perf-ratchet comparison behind `make
// perfgate`.
//
// A closed-loop generator measures the harness, not the server: when
// every worker waits for its previous response before sending the next
// request, a slow server quietly lowers the offered load and the
// recorded latencies omit exactly the requests that would have hurt —
// the coordinated-omission trap. The open loop fixes the arrival
// schedule up front, measures each request's latency from its
// *intended* start time (so time spent queued behind a saturated
// connection pool counts against the server), and sweeps arrival rates
// into a latency-vs-throughput curve whose knee is the number worth
// ratcheting. Only the churn scenario runs closed loop: it measures
// survival, not latency, and its workers are paced across the kill
// schedule.
package loadharness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/metrics"
)

// RunConfig parameterizes one open-loop step at a single arrival rate.
type RunConfig struct {
	// Rate is the mean arrival rate in requests per second.
	Rate float64
	// Duration is how long the arrival schedule runs. Requests already
	// fired when it elapses are allowed to finish and are recorded.
	Duration time.Duration
	// MaxConns bounds concurrently executing requests (the connection
	// pool). An arrival that finds the pool exhausted still *starts* on
	// schedule — its wait for a slot is charged to its latency, exactly
	// the queueing delay a real client would see.
	MaxConns int
	// Seed makes the schedule reproducible.
	Seed int64
}

// RateResult is one swept rate's outcome.
type RateResult struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Issued      uint64  `json:"issued"`
	Failed      uint64  `json:"failed"`
	// LatencyMS digests intended-start-time latencies: each sample runs
	// from the moment the schedule said the request should begin (not
	// from when a connection freed up) to its completion.
	LatencyMS metrics.Latency `json:"latency_ms"`
	// Bytes, AchievedMBps, and RequestMBps are the step's byte axis:
	// total payload bytes moved, wall-clock byte throughput in MB/s (1e6
	// bytes), and the per-request MB/s distribution — so a serve path
	// that keeps its request knee but halves its byte rate is still
	// caught. They are omitted when no request moved a byte.
	Bytes        uint64           `json:"bytes,omitempty"`
	AchievedMBps float64          `json:"achieved_mbps,omitempty"`
	RequestMBps  *metrics.Latency `json:"request_mbps,omitempty"`

	// Hist carries the raw latency histogram for callers that
	// aggregate; MBpsHist the per-request MB/s histogram. Neither is
	// serialized.
	Hist     *metrics.Histogram `json:"-"`
	MBpsHist *metrics.Histogram `json:"-"`
}

// Run executes one open-loop step: arrivals fire on the seeded schedule
// regardless of in-flight count, each request's latency is measured from
// its intended start time, and the call returns once every fired request
// has completed. do performs one request and reports the payload bytes
// it moved; a non-nil error counts as a failure (the latency is still
// recorded — failures are usually the slow ones, dropping them would
// re-introduce the omission). The step's result carries the byte axis
// too: total bytes, wall-clock MB/s, and the per-request MB/s
// distribution (each request's bytes over its intended-start-time
// latency, so queueing delay depresses the number exactly as a client
// would experience it).
func Run(ctx context.Context, cfg RunConfig, do func(context.Context) (int64, error)) (RateResult, error) {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	sched, err := NewArrivals(cfg.Rate, cfg.Seed)
	if err != nil {
		return RateResult{}, err
	}
	var (
		hist   metrics.Histogram
		mbps   metrics.Histogram
		bytes  atomic.Uint64
		issued atomic.Uint64
		failed atomic.Uint64
		wg     sync.WaitGroup
		sem    = make(chan struct{}, cfg.MaxConns)
	)
	start := time.Now()
	for {
		offset := sched.Next()
		if offset >= cfg.Duration {
			break
		}
		// Sleep until the intended start; when the generator itself is
		// behind (offset already past), fire immediately — the intended
		// time, not the actual fire time, is what latency is measured
		// from, so generator lag self-reports as latency instead of
		// silently thinning the load.
		if wait := offset - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return RateResult{}, ctx.Err()
			}
		}
		intended := start.Add(offset)
		issued.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{} // pool slot; the wait counts against latency
			n, err := do(ctx)
			<-sem
			lat := time.Since(intended).Seconds()
			hist.Observe(lat)
			if err != nil {
				failed.Add(1)
				return
			}
			if n > 0 {
				bytes.Add(uint64(n))
				if lat > 0 {
					mbps.Observe(float64(n) / lat / 1e6)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	res := RateResult{
		OfferedRPS: cfg.Rate,
		Issued:     issued.Load(),
		Failed:     failed.Load(),
		Bytes:      bytes.Load(),
		LatencyMS:  hist.LatencyMS(),
		Hist:       &hist,
		MBpsHist:   &mbps,
	}
	if elapsed > 0 {
		res.AchievedRPS = float64(issued.Load()-failed.Load()) / elapsed
		res.AchievedMBps = float64(bytes.Load()) / elapsed / 1e6
	}
	if mbps.Count() > 0 {
		d := mbps.Digest()
		res.RequestMBps = &d
	}
	return res, nil
}

// SweepConfig parameterizes a rate sweep: the same schedule parameters
// applied across a ladder of arrival rates.
type SweepConfig struct {
	Rates    []float64
	Duration time.Duration
	MaxConns int
	Seed     int64
	// Settle is an idle pause between steps so one step's stragglers
	// don't pollute the next step's measurements.
	Settle time.Duration
	// Progress, when non-nil, is called after each completed step.
	Progress func(RateResult)
}

// Sweep runs one open-loop step per configured rate, in order, and
// returns the per-rate results.
func Sweep(ctx context.Context, cfg SweepConfig, do func(context.Context) (int64, error)) ([]RateResult, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("loadharness: sweep needs at least one arrival rate")
	}
	out := make([]RateResult, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		res, err := Run(ctx, RunConfig{
			Rate: rate, Duration: cfg.Duration, MaxConns: cfg.MaxConns, Seed: cfg.Seed + int64(i),
		}, do)
		if err != nil {
			return out, err
		}
		out = append(out, res)
		if cfg.Progress != nil {
			cfg.Progress(res)
		}
		if cfg.Settle > 0 && i < len(cfg.Rates)-1 {
			select {
			case <-time.After(cfg.Settle):
			case <-ctx.Done():
				return out, ctx.Err()
			}
		}
	}
	return out, nil
}

// Knee locates the latency-vs-throughput curve's knee: the highest
// swept rate the server still absorbed — achieved throughput within
// kneeThroughputFloor of offered, p99 within kneeLatencyInflation of
// the lowest rate's p99 (with an absolute floor so microsecond-level
// baselines don't declare a knee on scheduler jitter). When no rate
// qualifies (the ladder started past saturation), the point with the
// highest achieved throughput is returned, which is then the measured
// capacity. Returns the index into results, or -1 for no results.
func Knee(results []RateResult) int {
	if len(results) == 0 {
		return -1
	}
	const (
		kneeThroughputFloor  = 0.90
		kneeLatencyInflation = 10.0
		kneeLatencyFloorMS   = 5.0
	)
	baseP99 := results[0].LatencyMS.P99
	capMS := baseP99 * kneeLatencyInflation
	if capMS < kneeLatencyFloorMS {
		capMS = kneeLatencyFloorMS
	}
	best := -1
	for i, r := range results {
		if r.Issued == 0 {
			continue
		}
		if r.AchievedRPS >= kneeThroughputFloor*r.OfferedRPS && r.LatencyMS.P99 <= capMS {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for i, r := range results {
		if best < 0 || r.AchievedRPS > results[best].AchievedRPS {
			best = i
		}
	}
	return best
}
